package pt

import (
	"reflect"
	"testing"

	"snorlax/internal/vm"
)

// TestSnapshotAssembler rebuilds real snapshots chunk by chunk and
// requires the result to be deep-equal to the encoder's original —
// the property that makes streamed ingest invisible to diagnosis.
func TestSnapshotAssembler(t *testing.T) {
	m := buildBusyModule(t)
	for _, cfg := range []Config{{}, {BufBytes: 256}} {
		enc := NewEncoder(cfg)
		res := vm.Run(m, vm.Config{Seed: 5, Sink: enc})
		if res.Failed() {
			t.Fatal(res.Failure)
		}
		want := enc.Snapshot()
		for _, chunk := range []int{1, 64, 4096} {
			a := NewSnapshotAssembler(want.Time)
			for _, tid := range want.Tids() {
				st := want.Threads[tid]
				if err := a.StartThread(tid, st.Wrapped, len(st.Data)); err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(st.Data); off += chunk {
					end := off + chunk
					if end > len(st.Data) {
						end = len(st.Data)
					}
					if err := a.Feed(st.Data[off:end]); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, err := a.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk=%d: assembled snapshot differs from the original", chunk)
			}
		}
	}
}

func TestSnapshotAssemblerZeroSizeThread(t *testing.T) {
	a := NewSnapshotAssembler(42)
	if err := a.StartThread(0, true, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	st, ok := snap.Threads[0]
	if !ok || st.Data != nil || !st.Wrapped {
		t.Fatalf("zero-size thread = %+v, ok=%v; want nil Data, Wrapped, present", st, ok)
	}
}

func TestSnapshotAssemblerProtocolErrors(t *testing.T) {
	a := NewSnapshotAssembler(0)
	if err := a.Feed([]byte{1}); err == nil {
		t.Fatalf("bytes before any thread accepted")
	}
	if err := a.StartThread(1, false, 4); err != nil {
		t.Fatal(err)
	}
	if err := a.StartThread(2, false, 4); err == nil {
		t.Fatalf("thread declared while the previous one was incomplete")
	}
	if err := a.Feed(make([]byte, 5)); err == nil {
		t.Fatalf("bytes beyond the declared size accepted")
	}
	if _, err := a.Finish(); err == nil {
		t.Fatalf("Finish with an incomplete thread succeeded")
	}
	if err := a.Feed(make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if err := a.StartThread(1, false, 1); err == nil {
		t.Fatalf("duplicate thread accepted")
	}
	b := NewSnapshotAssembler(0)
	if err := b.StartThread(3, false, -1); err == nil {
		t.Fatalf("negative declared size accepted")
	}
}

// TestSnapshotAssemblerArena pins arena-backed assembly against the
// plain assembler: it must produce a deep-equal snapshot whose thread
// sections cannot alias (capped capacities), fall back to per-thread
// allocation once the arena runs out, and still enforce the
// structural protocol.
func TestSnapshotAssemblerArena(t *testing.T) {
	m := buildBusyModule(t)
	enc := NewEncoder(Config{})
	res := vm.Run(m, vm.Config{Seed: 5, Sink: enc})
	if res.Failed() {
		t.Fatal(res.Failure)
	}
	want := enc.Snapshot()
	var total int
	for _, st := range want.Threads {
		total += len(st.Data)
	}

	assemble := func(a *SnapshotAssembler) *Snapshot {
		t.Helper()
		for _, tid := range want.Tids() {
			st := want.Threads[tid]
			if err := a.StartThread(tid, st.Wrapped, len(st.Data)); err != nil {
				t.Fatal(err)
			}
			if err := a.Feed(st.Data); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	arena := make([]byte, total)
	a := NewSnapshotAssembler(want.Time)
	a.UseArena(arena)
	got := assemble(a)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arena-backed snapshot differs from the original")
	}
	// Carved sections must have capped capacity: growing one thread's
	// ring cannot reach into its neighbor's bytes.
	for tid, st := range got.Threads {
		if len(st.Data) > 0 && cap(st.Data) != len(st.Data) {
			t.Fatalf("thread %d: cap %d != len %d (section can grow into the arena)",
				tid, cap(st.Data), len(st.Data))
		}
	}

	// An arena smaller than the declared bytes falls back to
	// per-thread allocation past the point it runs out.
	short := NewSnapshotAssembler(want.Time)
	short.UseArena(make([]byte, 1))
	if got := assemble(short); !reflect.DeepEqual(got, want) {
		t.Fatalf("short-arena snapshot differs from the original")
	}

	// A section's declared size still bounds its bytes: an overrun is
	// refused, never written into the next section.
	v := NewSnapshotAssembler(0)
	v.UseArena(make([]byte, 4))
	if err := v.StartThread(1, false, 2); err != nil {
		t.Fatal(err)
	}
	if err := v.Feed(make([]byte, 3)); err == nil {
		t.Fatalf("arena assembly accepted bytes beyond the declared size")
	}
}
