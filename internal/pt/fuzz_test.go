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

// eagerRing is the reference ring FuzzRing holds the lazy ring to:
// the same overwrite rule over a buffer of the whole capacity,
// allocated up front.
type eagerRing struct {
	buf   []byte
	w     int
	total int64
}

func newEagerRing(capacity int) *eagerRing {
	return &eagerRing{buf: make([]byte, capacity)}
}

func (r *eagerRing) write(p []byte) {
	r.total += int64(len(p))
	if len(p) >= len(r.buf) {
		copy(r.buf, p[len(p)-len(r.buf):])
		r.w = 0
		return
	}
	n := copy(r.buf[r.w:], p)
	if n < len(p) {
		copy(r.buf, p[n:])
		r.w = len(p) - n
	} else {
		r.w += n
		if r.w == len(r.buf) {
			r.w = 0
		}
	}
}

func (r *eagerRing) snapshot() (data []byte, wrapped bool) {
	if r.total < int64(len(r.buf)) {
		out := make([]byte, r.w)
		copy(out, r.buf[:r.w])
		return out, false
	}
	out := make([]byte, len(r.buf))
	n := copy(out, r.buf[r.w:])
	copy(out[n:], r.buf[:r.w])
	return out, r.total > int64(len(r.buf))
}

// FuzzRing checks that arbitrary write sequences keep the ring's
// tail-of-stream invariant, and that after every write the ring's
// snapshot — bytes and wrapped flag — equals the eager reference's.
// The chunk is written reps times in writes of step bytes; capacities
// above the ring's first reservation exercise its doubling growth.
func FuzzRing(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(7), uint8(4), uint8(0))
	f.Add([]byte{}, uint16(0), uint8(4), uint8(0))
	// Exact fill: two writes of 4 into a ring of 8.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(7), uint8(3), uint8(0))
	// A fill one byte short.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint16(7), uint8(2), uint8(0))
	// A single write longer than the capacity.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(7), uint8(11), uint8(0))
	// A write that straddles the switch from append to the full buffer.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(7), uint8(4), uint8(0))
	// Growth by doubling past the first reservation, then a wrap.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, uint16(999), uint8(16), uint8(63))
	f.Fuzz(func(t *testing.T, chunk []byte, capSeed uint16, stepSeed, repSeed uint8) {
		capacity := int(capSeed%2048) + 1
		step := int(stepSeed) + 1
		var all []byte
		for i := 0; i <= int(repSeed%64); i++ {
			all = append(all, chunk...)
		}
		r, ref := newRing(capacity), newEagerRing(capacity)
		for i := 0; i < len(all); i += step {
			p := all[i:min(i+step, len(all))]
			r.write(p)
			ref.write(p)
			if cap(r.buf) > capacity {
				t.Fatalf("backing array %d bytes for a %d-byte ring", cap(r.buf), capacity)
			}
			data, wrapped := r.snapshot()
			wantData, wantWrapped := ref.snapshot()
			if string(data) != string(wantData) || wrapped != wantWrapped {
				t.Fatalf("after %d bytes: snapshot %v wrapped=%v, eager ring %v wrapped=%v",
					i+len(p), data, wrapped, wantData, wantWrapped)
			}
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
