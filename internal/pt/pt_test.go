package pt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"snorlax/internal/ir"
	"snorlax/internal/vm"
)

func TestRingUnwrapped(t *testing.T) {
	r := newRing(16)
	r.write([]byte{1, 2, 3})
	r.write([]byte{4, 5})
	data, wrapped := r.snapshot()
	if wrapped {
		t.Fatal("should not be wrapped")
	}
	if !bytes.Equal(data, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("data = %v", data)
	}
}

func TestRingWrap(t *testing.T) {
	r := newRing(8)
	for i := byte(0); i < 20; i++ {
		r.write([]byte{i})
	}
	data, wrapped := r.snapshot()
	if !wrapped {
		t.Fatal("should be wrapped")
	}
	if !bytes.Equal(data, []byte{12, 13, 14, 15, 16, 17, 18, 19}) {
		t.Fatalf("data = %v", data)
	}
	if r.total != 20 {
		t.Fatalf("total = %d", r.total)
	}
}

func TestRingOversizedWrite(t *testing.T) {
	r := newRing(4)
	r.write([]byte{1, 2, 3, 4, 5, 6, 7})
	data, wrapped := r.snapshot()
	if !wrapped || !bytes.Equal(data, []byte{4, 5, 6, 7}) {
		t.Fatalf("data = %v wrapped = %v", data, wrapped)
	}
}

// TestRingExactFillNotWrapped is the false-wrap regression test: a
// write sequence that exactly fills the ring overwrites nothing, so
// the snapshot must keep every byte AND report wrapped=false — a true
// report would make the decoder treat a clean stream's prefix as
// possibly mid-packet and scan forward to the next sync point.
func TestRingExactFillNotWrapped(t *testing.T) {
	t.Run("single exact-cap write", func(t *testing.T) {
		r := newRing(8)
		r.write([]byte{1, 2, 3, 4, 5, 6, 7, 8})
		data, wrapped := r.snapshot()
		if wrapped {
			t.Error("exact-fill write reported wrapped=true, but no byte was overwritten")
		}
		if !bytes.Equal(data, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
			t.Errorf("data = %v, want all 8 written bytes", data)
		}
	})
	t.Run("incremental exact fill", func(t *testing.T) {
		r := newRing(8)
		r.write([]byte{1, 2, 3})
		r.write([]byte{4, 5, 6, 7, 8})
		data, wrapped := r.snapshot()
		if wrapped {
			t.Error("incremental exact fill reported wrapped=true, but no byte was overwritten")
		}
		if !bytes.Equal(data, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
			t.Errorf("data = %v, want all 8 written bytes", data)
		}
	})
	t.Run("one byte past exact fill wraps", func(t *testing.T) {
		r := newRing(8)
		r.write([]byte{1, 2, 3, 4, 5, 6, 7, 8})
		r.write([]byte{9})
		data, wrapped := r.snapshot()
		if !wrapped {
			t.Error("overwriting write reported wrapped=false")
		}
		if !bytes.Equal(data, []byte{2, 3, 4, 5, 6, 7, 8, 9}) {
			t.Errorf("data = %v", data)
		}
	})
	t.Run("oversized first write wraps", func(t *testing.T) {
		// len(p) > cap on an empty ring drops a prefix of p itself:
		// history was lost, so wrapped must be true.
		r := newRing(4)
		r.write([]byte{1, 2, 3, 4, 5})
		data, wrapped := r.snapshot()
		if !wrapped || !bytes.Equal(data, []byte{2, 3, 4, 5}) {
			t.Errorf("data = %v wrapped = %v, want [2 3 4 5] true", data, wrapped)
		}
	})
}

// TestRingReservesNoMoreThanItHolds pins the lazy allocation rule: a
// ring written below its capacity never holds a backing array larger
// than its capacity (nor larger than its first reservation or twice
// what it holds), and only a wrapping write allocates the full buffer.
func TestRingReservesNoMoreThanItHolds(t *testing.T) {
	for _, capacity := range []int{1, 7, 100, minRingGrow - 1, minRingGrow, minRingGrow + 1, 1000, 4096, 64 << 10} {
		for _, step := range []int{1, 3, 16, 361} {
			r := newRing(capacity)
			if cap(r.buf) != 0 {
				t.Fatalf("cap %d: new ring reserved %d bytes before any write", capacity, cap(r.buf))
			}
			p := bytes.Repeat([]byte{0xa5}, step)
			for int(r.total)+step < capacity {
				r.write(p)
				if got := cap(r.buf); got > capacity || got > max(minRingGrow, 2*len(r.buf)) {
					t.Fatalf("cap %d step %d: %d bytes held in a %d-byte backing array",
						capacity, step, len(r.buf), got)
				}
			}
			r.write(p) // reaches or passes the capacity
			if r.wrapped() && (len(r.buf) != capacity || cap(r.buf) != capacity) {
				t.Fatalf("cap %d step %d: wrapped ring has len %d cap %d, want both %d",
					capacity, step, len(r.buf), cap(r.buf), capacity)
			}
		}
	}
}

func TestRingMatchesTailProperty(t *testing.T) {
	// Property: for any write sequence, the snapshot equals the tail
	// of the concatenated writes.
	check := func(chunks [][]byte, capSeed uint8) bool {
		capacity := int(capSeed%64) + 1
		r := newRing(capacity)
		var all []byte
		for _, c := range chunks {
			r.write(c)
			all = append(all, c...)
		}
		data, wrapped := r.snapshot()
		want := all
		if len(all) > capacity {
			want = all[len(all)-capacity:]
		}
		// wrapped means "bytes were overwritten": exactly when the
		// total written exceeds capacity.
		return bytes.Equal(data, want) && wrapped == (len(all) > capacity)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	var buf []byte
	buf = appendPSB(buf, 12345, 999_999)
	buf = appendTNT(buf, 0b0101, 4)
	buf = appendMTC(buf, 0xBEEF)
	buf = appendCYC(buf, 77)
	buf = appendTIP(buf, 4242)
	buf = appendTNT(buf, 1, 1)

	r := &packetReader{data: buf}
	expect := []PacketKind{KindPSB, KindTNT, KindMTC, KindCYC, KindTIP, KindTNT}
	var got []packet
	for {
		p, ok, err := r.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, p)
	}
	if len(got) != len(expect) {
		t.Fatalf("decoded %d packets, want %d", len(got), len(expect))
	}
	for i, k := range expect {
		if got[i].kind != k {
			t.Fatalf("packet %d kind = %s, want %s", i, got[i].kind, k)
		}
	}
	if got[0].pc != 12345 || got[0].time != 999_999 {
		t.Errorf("PSB = %+v", got[0])
	}
	if got[1].bits != 0b0101 || got[1].n != 4 {
		t.Errorf("TNT = %+v", got[1])
	}
	if got[2].coarse != 0xBEEF {
		t.Errorf("MTC = %+v", got[2])
	}
	if got[3].units != 77 {
		t.Errorf("CYC = %+v", got[3])
	}
	if got[4].pc != 4242 {
		t.Errorf("TIP = %+v", got[4])
	}
}

func TestPacketTruncated(t *testing.T) {
	full := appendTIP(nil, 1<<40)
	for cut := 1; cut < len(full); cut++ {
		r := &packetReader{data: full[:cut]}
		if _, _, err := r.next(); err == nil {
			t.Errorf("cut at %d: expected error", cut)
		}
	}
}

// recordingHook captures the executed instruction stream per thread.
type recordingHook struct {
	byThread map[int][]record
}

type record struct {
	pc   ir.PC
	time int64
}

func (h *recordingHook) Before(tid int, in ir.Instr, live int, time int64) int64 {
	if h.byThread == nil {
		h.byThread = map[int][]record{}
	}
	h.byThread[tid] = append(h.byThread[tid], record{in.PC(), time})
	return 0
}

// dedupeConsecutive collapses repeated entries for the same PC, which
// arise when a blocked lock/join instruction retries: hardware traces
// carry no event for a retried blocked instruction.
func dedupeConsecutive(recs []record) []record {
	out := recs[:0:0]
	for i, r := range recs {
		if i > 0 && recs[i-1].pc == r.pc {
			continue
		}
		out = append(out, r)
	}
	return out
}

// buildBusyModule returns a module with branches, calls, indirect
// calls and two threads, to exercise the encoder and decoder.
func buildBusyModule(t testing.TB) *ir.Module {
	t.Helper()
	src := `
module busy
global fp: func(int) int
global total: int
global mu: mutex

func square(x: int) int {
entry:
  %r = mul %x, %x
  ret %r
}

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
  %f = load @fp
  %sq = call %f(%iv)
  lock @mu
  %tv = load @total
  %tv2 = add %tv, %sq
  store %tv2, @total
  unlock @mu
  %odd = rem %iv, 2
  %isodd = eq %odd, 1
  condbr %isodd, oddcase, next
oddcase:
  %dummy = call square(%iv)
  br next
next:
  %iv2 = add %iv, 1
  store %iv2, %i
  br loop
done:
  ret
}

func main() {
entry:
  store square, @fp
  %t1 = spawn work(30)
  %t2 = spawn work(25)
  join %t1
  join %t2
  ret
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := buildBusyModule(t)
	for seed := int64(0); seed < 3; seed++ {
		enc := NewEncoder(Config{})
		hook := &recordingHook{}
		res := vm.Run(m, vm.Config{Seed: seed, Sink: enc, Hook: hook})
		if res.Failed() {
			t.Fatalf("seed %d: %v", seed, res.Failure)
		}
		snap := enc.Snapshot()
		if len(snap.Threads) != 3 {
			t.Fatalf("seed %d: %d thread streams, want 3", seed, len(snap.Threads))
		}
		for tid, st := range snap.Threads {
			if st.Wrapped {
				t.Fatalf("seed %d: thread %d wrapped with default 64KB buffer", seed, tid)
			}
			tt, err := Decode(m, tid, st, Config{}, ir.NoPC, res.Time, nil)
			if err != nil {
				t.Fatalf("seed %d thread %d: decode: %v", seed, tid, err)
			}
			want := dedupeConsecutive(hook.byThread[tid])
			if len(tt.Instrs) != len(want) {
				t.Fatalf("seed %d thread %d: decoded %d instrs, executed %d",
					seed, tid, len(tt.Instrs), len(want))
			}
			for i := range want {
				if tt.Instrs[i].PC != want[i].pc {
					t.Fatalf("seed %d thread %d: instr %d decoded PC %d, executed %d",
						seed, tid, i, tt.Instrs[i].PC, want[i].pc)
				}
			}
		}
	}
}

func TestDecodedTimestampsTrackReality(t *testing.T) {
	m := buildBusyModule(t)
	enc := NewEncoder(Config{})
	hook := &recordingHook{}
	res := vm.Run(m, vm.Config{Seed: 7, Sink: enc, Hook: hook})
	if res.Failed() {
		t.Fatal(res.Failure)
	}
	snap := enc.Snapshot()
	for tid, st := range snap.Threads {
		tt, err := Decode(m, tid, st, Config{}, ir.NoPC, res.Time, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := dedupeConsecutive(hook.byThread[tid])
		prev := int64(0)
		for i, di := range tt.Instrs {
			if di.Time < prev {
				t.Fatalf("thread %d: time went backwards at %d: %d < %d", tid, i, di.Time, prev)
			}
			prev = di.Time
			// Reconstructed time must be within the uncertainty
			// window (plus scheduling slack) of the true time.
			diff := want[i].time - di.Time
			if diff < 0 {
				diff = -diff
			}
			if diff > di.Uncert+200_000 {
				t.Fatalf("thread %d instr %d (pc %d): decoded %d true %d uncert %d",
					tid, i, di.PC, di.Time, want[i].time, di.Uncert)
			}
		}
	}
}

func TestDecodeWrappedRing(t *testing.T) {
	m := buildBusyModule(t)
	enc := NewEncoder(Config{BufBytes: 256})
	hook := &recordingHook{}
	res := vm.Run(m, vm.Config{Seed: 1, Sink: enc, Hook: hook})
	if res.Failed() {
		t.Fatal(res.Failure)
	}
	snap := enc.Snapshot()
	anyWrapped := false
	for tid, st := range snap.Threads {
		if !st.Wrapped {
			continue
		}
		anyWrapped = true
		tt, err := Decode(m, tid, st, Config{BufBytes: 256}, ir.NoPC, res.Time, nil)
		if err != nil {
			t.Fatalf("thread %d: %v", tid, err)
		}
		if !tt.Wrapped {
			t.Error("decode should report wrap")
		}
		if len(tt.Instrs) == 0 {
			t.Fatalf("thread %d: wrapped decode produced nothing", tid)
		}
		// The decoded tail must match the tail of the true stream.
		want := dedupeConsecutive(hook.byThread[tid])
		got := tt.Instrs
		if len(got) > len(want) {
			t.Fatalf("thread %d: decoded more than executed", tid)
		}
		tail := want[len(want)-len(got):]
		for i := range got {
			if got[i].PC != tail[i].pc {
				t.Fatalf("thread %d: tail mismatch at %d: decoded %d executed %d",
					tid, i, got[i].PC, tail[i].pc)
			}
		}
	}
	if !anyWrapped {
		t.Skip("no ring wrapped; enlarge workload")
	}
}

func TestDriverTrigger(t *testing.T) {
	m := buildBusyModule(t)
	// Trigger at the unlock in work().
	var unlockPC ir.PC = ir.NoPC
	m.Instrs(func(in ir.Instr) {
		if in.Op() == ir.OpUnlock && unlockPC == ir.NoPC {
			unlockPC = in.PC()
		}
	})
	d := NewDriver(Config{})
	d.TriggerPC = unlockPC
	d.TriggerSkip = 3
	res := vm.Run(m, vm.Config{Seed: 2, Sink: d.Enc, Hook: d})
	if res.Failed() {
		t.Fatal(res.Failure)
	}
	if !d.Triggered() {
		t.Fatal("trigger did not fire")
	}
	snap := d.TriggerSnapshot()
	if snap == nil || len(snap.Threads) == 0 {
		t.Fatal("no snapshot at trigger")
	}
	full := d.FailureSnapshot(res.Time)
	var snapBytes, fullBytes int
	for _, st := range snap.Threads {
		snapBytes += len(st.Data)
	}
	for _, st := range full.Threads {
		fullBytes += len(st.Data)
	}
	if snapBytes >= fullBytes {
		t.Errorf("trigger snapshot (%d bytes) not smaller than final (%d bytes)", snapBytes, fullBytes)
	}
}

func TestEncoderStats(t *testing.T) {
	m := buildBusyModule(t)
	enc := NewEncoder(Config{})
	res := vm.Run(m, vm.Config{Seed: 0, Sink: enc})
	if res.Failed() {
		t.Fatal(res.Failure)
	}
	st := enc.Stats()
	if st.Packets[KindTNT] == 0 || st.Packets[KindTIP] == 0 || st.Packets[KindPSB] == 0 {
		t.Errorf("packet mix incomplete: %+v", st.Packets)
	}
	if st.Packets[KindMTC] == 0 && st.Packets[KindCYC] == 0 {
		t.Error("no timing packets")
	}
	frac := st.TimingFraction()
	if frac <= 0.1 || frac >= 0.9 {
		t.Errorf("timing fraction = %.2f, want a substantial share", frac)
	}
}

func TestTracingOverheadIsSmall(t *testing.T) {
	m := buildBusyModule(t)
	base := vm.Run(m, vm.Config{Seed: 5})
	traced := vm.Run(m, vm.Config{Seed: 5, Sink: NewEncoder(Config{})})
	if base.Failed() || traced.Failed() {
		t.Fatal("unexpected failure")
	}
	overhead := float64(traced.Time-base.Time) / float64(base.Time)
	if overhead < 0 {
		t.Fatalf("negative overhead %.4f", overhead)
	}
	if overhead > 0.05 {
		t.Errorf("tracing overhead = %.2f%%, want < 5%%", overhead*100)
	}
}

func TestDecodeStopPC(t *testing.T) {
	// StopPC truncates the final straight-line walk.
	src := `
module stop
global g: int
func main() {
entry:
  store 1, @g
  store 2, @g
  store 3, @g
  ret
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(Config{})
	res := vm.Run(m, vm.Config{Sink: enc})
	if res.Failed() {
		t.Fatal(res.Failure)
	}
	var secondStore ir.PC
	count := 0
	m.Instrs(func(in ir.Instr) {
		if in.Op() == ir.OpStore {
			count++
			if count == 2 {
				secondStore = in.PC()
			}
		}
	})
	snap := enc.Snapshot()
	tt, err := Decode(m, 0, snap.Threads[0], Config{}, secondStore, res.Time, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := tt.Instrs[len(tt.Instrs)-1]
	if last.PC != secondStore {
		t.Errorf("last decoded PC = %d, want stop PC %d", last.PC, secondStore)
	}
}

func TestSnapshotTidsSorted(t *testing.T) {
	s := &Snapshot{Threads: map[int]SnapshotThread{3: {}, 0: {}, 7: {}}}
	tids := s.Tids()
	if len(tids) != 3 || tids[0] != 0 || tids[1] != 3 || tids[2] != 7 {
		t.Errorf("tids = %v", tids)
	}
}

func TestRandomizedEncodeDecode(t *testing.T) {
	// Fuzz-ish: random seeds and buffer sizes must never produce a
	// decode error or a PC outside the module.
	m := buildBusyModule(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		cfg := Config{BufBytes: 128 << uint(rng.Intn(6))}
		enc := NewEncoder(cfg)
		res := vm.Run(m, vm.Config{Seed: rng.Int63n(1000), Sink: enc})
		if res.Failed() {
			t.Fatal(res.Failure)
		}
		snap := enc.Snapshot()
		for tid, st := range snap.Threads {
			tt, err := Decode(m, tid, st, cfg, ir.NoPC, res.Time, nil)
			if err != nil {
				t.Fatalf("trial %d thread %d: %v", trial, tid, err)
			}
			for _, di := range tt.Instrs {
				if int(di.PC) < 0 || int(di.PC) >= m.NumInstrs() {
					t.Fatalf("decoded PC %d out of range", di.PC)
				}
			}
		}
	}
}
