package pt

import (
	"testing"

	"snorlax/internal/ir"
	"snorlax/internal/vm"
)

// seedModule is the IR program whose genuine trace streams seed
// FuzzDecode, both here and in the checked-in corpus under
// testdata/fuzz (see corpus_test.go).
func seedModule(tb testing.TB) *ir.Module {
	tb.Helper()
	mod, err := ir.Parse(`
module seedprog
global total: int
func work(n: int) {
entry:
  %i = alloca int
  store 0, %i
  br loop
loop:
  %iv = load %i
  %c = lt %iv, %n
  condbr %c, body, done
body:
  %t = load @total
  store %t, @total
  %iv2 = add %iv, 1
  store %iv2, %i
  br loop
done:
  ret
}
func main() {
entry:
  %t1 = spawn work(10)
  call work(7)
  join %t1
  ret
}
`)
	if err != nil {
		tb.Fatal(err)
	}
	return mod
}

// seedSnapshot runs the seed program deterministically under the
// encoder and returns the captured snapshot.
func seedSnapshot(tb testing.TB) (*ir.Module, *Snapshot) {
	tb.Helper()
	mod := seedModule(tb)
	enc := NewEncoder(Config{})
	res := vm.Run(mod, vm.Config{Seed: 1, Sink: enc})
	if res.Failed() {
		tb.Fatal(res.Failure)
	}
	return mod, enc.Snapshot()
}

// FuzzDecode checks the decoder's total robustness: arbitrary bytes —
// including corrupted tails of genuine traces — must produce an error
// or a valid trace, never a panic or an out-of-range PC.
func FuzzDecode(f *testing.F) {
	// Seed with a genuine captured stream.
	mod, snap := seedSnapshot(f)
	for _, tid := range snap.Tids() {
		f.Add(snap.Threads[tid].Data, false)
	}
	f.Add([]byte{}, false)
	f.Add([]byte{0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x01, 0x00}, true)
	f.Add(psbMagic, false)

	f.Fuzz(func(t *testing.T, data []byte, wrapped bool) {
		tt, err := Decode(mod, 0, SnapshotThread{Data: data, Wrapped: wrapped},
			Config{}, ir.NoPC, 0, nil)
		if err != nil {
			return
		}
		for _, di := range tt.Instrs {
			if int(di.PC) < 0 || int(di.PC) >= mod.NumInstrs() {
				t.Fatalf("decoded PC %d out of module range", di.PC)
			}
			if di.Uncert < 0 {
				t.Fatalf("negative uncertainty %d", di.Uncert)
			}
		}
	})
}

// FuzzRing checks that arbitrary write sequences keep the ring's
// tail-of-stream invariant.
func FuzzRing(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(8))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, chunk []byte, capSeed uint8) {
		capacity := int(capSeed%64) + 1
		r := newRing(capacity)
		var all []byte
		// Split the chunk into a few writes.
		for i := 0; i < len(chunk); i += 5 {
			end := i + 5
			if end > len(chunk) {
				end = len(chunk)
			}
			r.write(chunk[i:end])
			all = append(all, chunk[i:end]...)
		}
		data, _ := r.snapshot()
		want := all
		if len(all) > capacity {
			want = all[len(all)-capacity:]
		}
		if string(data) != string(want) {
			t.Fatalf("ring tail mismatch: got %v want %v", data, want)
		}
	})
}
