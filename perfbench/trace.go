package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"snorlax/internal/obs"
)

// Span names. Each wraps one call the benchmark makes into a layer's
// public API; "case" and "restart" are the per-case and per-restart
// roots the calls hang under.
const (
	spanCase      = "case"
	spanRestart   = "restart"
	spanClientRun = "core.Client.Run"
	spanDiagnose  = "core.Server.Diagnose"
	spanParse     = "ir.Parse"
	spanRegister  = "proto.Server.RegisterProgram"
	spanStoreOpen = "store.Open"
	spanRestore   = "proto.Server.Restore"
	rpcRegister   = "proto.Conn.Register"
	rpcFailure    = "proto.Conn.ReportFleetFailure"
	rpcDirectives = "proto.Conn.Directives"
	rpcUpload     = "proto.Conn.UploadBatchLedger"
	rpcPublish    = "proto.Conn.UploadBatchLedger/publish" // the upload that crossed the quota
	rpcFetch      = "proto.Conn.FetchReport"
)

// span is one timed call. Case is shared by every span of one case
// (or restart); Parent is 0 for roots. N carries the call's count
// payload: VM steps for core.Client.Run, replayed records for
// store.Open, the calling agent's index for RPCs.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Case   int64  `json:"case"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so untraced rounds pay
// one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	phase string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), phase: "setup"} }

func (t *tracer) setPhase(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, caseID, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Case: caseID, Name: name,
		Phase: t.phase, Start: now, End: now})
	return id
}

// end closes a span; a non-empty name renames it (an upload turns out
// to be the publishing one only when its reply arrives).
func (t *tracer) end(id int64, name string, n int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.N = now, n
	if name != "" {
		s.Name = name
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns every span's duration minus the time its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] = t.spans[i].dur()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			self[p-1] -= t.spans[i].dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// spanStats aggregates the self time of each span name in one phase.
type spanStats struct {
	count int
	total time.Duration
	times []float64 // ms
	n     int64
}

func (t *tracer) byName(phase string) map[string]*spanStats {
	out := map[string]*spanStats{}
	if t == nil {
		return out
	}
	self := t.selfTimes()
	for i, s := range t.spans {
		if phase != "" && s.Phase != phase {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.total += self[i]
		st.times = append(st.times, ms(self[i]))
		st.n += s.N
	}
	return out
}

// caseChains sums, per case, the self time of the named child spans —
// the blocking steps the reconciliation adds up. leadOnly keeps only
// the spans of a case's first agent (N == 0 on RPC spans).
func (t *tracer) caseChains(phase string, names map[string]bool, leadOnly bool) []float64 {
	self := t.selfTimes()
	sums := map[int64]float64{}
	for i, s := range t.spans {
		if s.Phase == phase && names[s.Name] && s.Case != 0 && (!leadOnly || s.N == 0) {
			sums[s.Case] += ms(self[i])
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// counters reads every counter, gauge and histogram of the given
// registries into one flat map: "name" sums a family across its
// label sets, "name{k=v}" is one series, and histograms contribute
// ".sum" and ".count" entries.
func counters(regs ...*obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		for _, m := range reg.Gather() {
			var labels []string
			for _, l := range m.Labels {
				labels = append(labels, l.Key+"="+l.Value)
			}
			key := m.Name
			if len(labels) > 0 {
				key += "{" + strings.Join(labels, ",") + "}"
			}
			switch m.Kind {
			case obs.KindCounter:
				out[key] += float64(m.Counter.Value())
				if key != m.Name {
					out[m.Name] += float64(m.Counter.Value())
				}
			case obs.KindGauge:
				out[key] += float64(m.Gauge.Value())
			case obs.KindHistogram:
				out[key+".sum"] += m.Histogram.Sum()
				out[key+".count"] += float64(m.Histogram.Count())
			}
		}
	}
	return out
}

// addDelta accumulates after-before into acc.
func addDelta(acc, before, after map[string]float64) {
	for k, v := range after {
		acc[k] += v - before[k]
	}
}

// goStats is the Go runtime's view of allocation and GC cost.
type goStats struct {
	totalAlloc uint64
	gcCPU      float64
	usedCPU    float64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	// The runtime's total is GOMAXPROCS times wall time; without the
	// idle share it is the CPU the process used.
	return goStats{totalAlloc: m.TotalAlloc, gcCPU: v(0), usedCPU: v(1) - v(2)}
}

// liveHeap forces collections and returns the live heap in bytes. The
// second collection empties the sync.Pool victim caches that survive
// the first. Connections the phase just closed are still being torn
// down on the tier's side, and their buffers stay live until their
// goroutines exit, so it collects again every 10 ms until the live
// heap stops shrinking.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	read := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	live := read()
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		next := read()
		if next+64<<10 > live {
			return min(live, next)
		}
		live = next
	}
	return live
}
