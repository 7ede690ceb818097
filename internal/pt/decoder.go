package pt

import (
	"bytes"
	"fmt"

	"snorlax/internal/ir"
)

// DynInstr is one replayed dynamic instruction instance: a static PC
// plus a reconstructed coarse timestamp.
//
// Time is the decoder's best lower bound for when the instruction
// executed; Uncert is the width of the uncertainty window
// [Time, Time+Uncert]. The window spans from the last timing packet
// before the instruction to the first timing packet after it, so two
// dynamic instructions are only orderable when their windows do not
// overlap — this is exactly the partial order of §4.1 (step 3).
type DynInstr struct {
	PC     ir.PC
	Time   int64
	Uncert int64
}

// ThreadTrace is the decoded execution of one thread.
type ThreadTrace struct {
	Tid int
	// Instrs is every replayed instruction in execution order, or only
	// the watched ones when the decode was given a Watch.
	Instrs []DynInstr
	// Seqs is nil when Instrs holds every replayed instruction, so
	// Instrs[i] is the thread's i-th instruction. A watched decode
	// sets Seqs[i] to Instrs[i]'s position in the full stream, which
	// keeps program-order comparisons identical to a full decode.
	Seqs []int
	// Wrapped reports that the ring buffer overwrote older history,
	// so Instrs covers only the tail of the thread's execution.
	Wrapped bool
	// StartTime is the timestamp of the sync point decoding began at.
	StartTime int64
}

// Watch selects, by PC, the instructions a decode keeps. The decoder
// still walks the CFG, reads every timing packet and counts every
// instruction; it only skips storing the unwatched ones. Statistical
// diagnosis asks a success trace about a handful of pattern PCs, so
// its decodes keep O(watched events) instead of O(executed
// instructions). A nil Watch keeps everything.
type Watch []bool

// decodeSlackNS widens every timestamp's uncertainty window to absorb
// sub-resolution skew. It is far below the ≥91 µs inter-event gaps
// the coarse interleaving hypothesis establishes.
const decodeSlackNS = 1000

// Decode replays one thread's captured packet stream against the
// module's control-flow graph and returns the reconstructed dynamic
// instruction trace.
//
// If the ring wrapped, decoding starts at the first sync point in the
// surviving bytes. stopPC, when not NoPC, truncates the final
// straight-line walk at that instruction (the failure PC). endTime,
// when positive, is the capture time of the snapshot: instructions
// recorded after the stream's last timing packet have their windows
// extended to it. watch, when not nil, has one entry per module
// instruction and restricts Instrs to the watched PCs.
func Decode(mod *ir.Module, tid int, snap SnapshotThread, cfg Config, stopPC ir.PC, endTime int64, watch Watch) (*ThreadTrace, error) {
	cfg = cfg.withDefaults()
	data := snap.Data
	if snap.Wrapped {
		idx := bytes.Index(data, psbMagic)
		if idx < 0 {
			return nil, fmt.Errorf("pt: wrapped trace for thread %d has no sync point", tid)
		}
		data = data[idx:]
	}
	r := &packetReader{data: data}
	first, ok, err := r.next()
	if err != nil {
		return nil, err
	}
	if !ok {
		return &ThreadTrace{Tid: tid, Wrapped: snap.Wrapped}, nil
	}
	if first.kind != KindPSB {
		return nil, fmt.Errorf("pt: trace for thread %d does not start with PSB (got %s)", tid, first.kind)
	}

	out := &ThreadTrace{Tid: tid, Wrapped: snap.Wrapped, StartTime: first.time}
	d := &decoder{
		mod:     mod,
		r:       r,
		cfg:     cfg,
		watch:   watch,
		curTime: first.time,
		uncert:  decodeSlackNS,
		mtcBase: first.time,
		out:     out,
	}
	if err := d.replay(first.pc, stopPC); err != nil {
		return nil, err
	}
	if endTime > d.curTime {
		d.seal(endTime)
	}
	return d.out, nil
}

// DecodeSnapshot decodes every thread of a snapshot. stopPCs maps
// thread id to that thread's stop PC (typically only the failing
// thread has one). watch is passed to every thread's Decode.
func DecodeSnapshot(mod *ir.Module, snap *Snapshot, cfg Config, stopPCs map[int]ir.PC, watch Watch) ([]*ThreadTrace, error) {
	traces := make([]*ThreadTrace, 0, len(snap.Threads))
	for _, tid := range snap.Tids() {
		stop := ir.NoPC
		if pc, ok := stopPCs[tid]; ok {
			stop = pc
		}
		tt, err := Decode(mod, tid, snap.Threads[tid], cfg, stop, snap.Time, watch)
		if err != nil {
			return nil, fmt.Errorf("thread %d: %w", tid, err)
		}
		traces = append(traces, tt)
	}
	return traces, nil
}

type decoder struct {
	mod   *ir.Module
	r     *packetReader
	cfg   Config
	watch Watch
	// seq counts every replayed instruction, kept or not.
	seq int

	curTime int64
	uncert  int64
	mtcBase int64

	tntBits  byte
	tntCount int

	// segStart is the index in out.Instrs of the first instruction
	// recorded since the last timing update; seal() closes their
	// windows when the clock next advances.
	segStart int

	out *ThreadTrace
}

// seal extends the uncertainty windows of the instructions recorded
// since the last timing update so they span to newTime: without a
// timing packet in between, all that is known is that they executed
// between the two clock readings.
func (d *decoder) seal(newTime int64) {
	for i := d.segStart; i < len(d.out.Instrs); i++ {
		if w := newTime - d.out.Instrs[i].Time + decodeSlackNS; w > d.out.Instrs[i].Uncert {
			d.out.Instrs[i].Uncert = w
		}
	}
	d.segStart = len(d.out.Instrs)
}

// advance moves the reconstructed clock to t (never backwards) and
// seals the open segment.
func (d *decoder) advance(t int64, uncert int64) {
	if t > d.curTime {
		d.seal(t)
		d.curTime = t
	}
	d.uncert = uncert
}

// applyTiming folds a timing packet into the reconstructed clock.
func (d *decoder) applyTiming(p packet) {
	switch p.kind {
	case KindMTC:
		gran := d.cfg.MTCGranularityNS
		curTicks := d.mtcBase / gran
		delta := int64(uint16(int64(p.coarse)-curTicks) & 0xffff)
		t := (curTicks + delta) * gran
		d.mtcBase = t
		d.advance(t, gran+decodeSlackNS)
	case KindCYC:
		d.advance(d.curTime+int64(p.units)*d.cfg.CYCResolutionNS,
			d.cfg.CYCResolutionNS+decodeSlackNS)
	case KindPSB:
		d.mtcBase = p.time
		d.advance(p.time, decodeSlackNS)
	}
}

// nextControl reads packets until a control packet (TNT or TIP)
// arrives, applying timing packets and sync points on the way. ok is
// false at end of stream.
func (d *decoder) nextControl() (packet, bool, error) {
	for {
		p, ok, err := d.r.next()
		if err != nil || !ok {
			return packet{}, false, err
		}
		switch p.kind {
		case KindMTC, KindCYC, KindPSB:
			d.applyTiming(p)
		case KindTNT, KindTIP:
			return p, true, nil
		}
	}
}

// syncAt eagerly consumes sync packets whose resume PC matches the
// current walk position (context-switch PGE syncs land mid-block,
// between control packets). Within a straight-line run between
// control packets each PC occurs at most once, so a matching sync can
// only belong to this instruction. Timing packets that precede a
// control packet are left for nextControl: applying them early would
// stamp pre-branch instructions with the branch's later time. It
// runs before every replayed instruction, so it peeks at the header
// byte and parses nothing unless a PSB is next.
func (d *decoder) syncAt(pc ir.PC) {
	for d.r.pos < len(d.r.data) && d.r.data[d.r.pos] == byte(KindPSB) {
		save := d.r.pos
		p, _, err := d.r.next()
		if err != nil || ir.PC(p.pc) != pc {
			d.r.pos = save
			return
		}
		d.applyTiming(p)
	}
}

// needBit returns the next TNT bit.
func (d *decoder) needBit() (bool, bool, error) {
	if d.tntCount == 0 {
		p, ok, err := d.nextControl()
		if err != nil || !ok {
			return false, false, err
		}
		if p.kind != KindTNT {
			return false, false, fmt.Errorf("pt: wanted TNT, got %s", p.kind)
		}
		d.tntBits, d.tntCount = p.bits, p.n
	}
	bit := d.tntBits&1 == 1
	d.tntBits >>= 1
	d.tntCount--
	return bit, true, nil
}

// needTIP returns the next TIP target.
func (d *decoder) needTIP() (ir.PC, bool, error) {
	if d.tntCount != 0 {
		return ir.NoPC, false, fmt.Errorf("pt: pending TNT bits at TIP boundary")
	}
	p, ok, err := d.nextControl()
	if err != nil || !ok {
		return ir.NoPC, false, err
	}
	if p.kind != KindTIP {
		return ir.NoPC, false, fmt.Errorf("pt: wanted TIP, got %s", p.kind)
	}
	return ir.PC(p.pc), true, nil
}

// exhausted reports whether no control packets or pending bits
// remain; trailing timing/sync packets do not count, since they drive
// no further control flow.
func (d *decoder) exhausted() bool {
	if d.tntCount != 0 {
		return false
	}
	peek := packetReader{data: d.r.data, pos: d.r.pos}
	for {
		p, ok, err := peek.next()
		if err != nil || !ok {
			return true
		}
		if p.kind == KindTNT || p.kind == KindTIP {
			return false
		}
	}
}

// locate converts a PC into its (block, index) position.
func (d *decoder) locate(pc ir.PC) (*ir.Block, int, error) {
	if int(pc) < 0 || int(pc) >= d.mod.NumInstrs() {
		return nil, 0, fmt.Errorf("pt: decoded PC %d out of range", pc)
	}
	in := d.mod.InstrAt(pc)
	b := in.Block()
	return b, int(pc - b.FirstPC()), nil
}

// replay walks the CFG from startPC, consuming control packets at
// data-dependent transfers and recording every watched instruction
// executed.
func (d *decoder) replay(startPC int64, stopPC ir.PC) error {
	block, idx, err := d.locate(ir.PC(startPC))
	if err != nil {
		return err
	}
	for {
		in := block.Instrs[idx]
		pc := in.PC()
		d.syncAt(pc)
		if d.watch == nil {
			d.out.Instrs = append(d.out.Instrs, DynInstr{PC: pc, Time: d.curTime, Uncert: d.uncert})
		} else if d.watch[pc] {
			d.out.Instrs = append(d.out.Instrs, DynInstr{PC: pc, Time: d.curTime, Uncert: d.uncert})
			d.out.Seqs = append(d.out.Seqs, d.seq)
		}
		d.seq++
		if pc == stopPC && d.exhausted() {
			return nil
		}
		switch i := in.(type) {
		case *ir.CondBrInstr:
			taken, ok, err := d.needBit()
			if err != nil || !ok {
				return err
			}
			target := i.Else
			if taken {
				target = i.Then
			}
			block, idx = target, 0
		case *ir.BrInstr:
			block, idx = i.Target, 0
		case *ir.CallInstr:
			if callee := i.StaticCallee(); callee != nil {
				block, idx = callee.Entry(), 0
			} else {
				to, ok, err := d.needTIP()
				if err != nil || !ok {
					return err
				}
				block, idx, err = d.locate(to)
				if err != nil {
					return err
				}
			}
		case *ir.RetInstr:
			to, ok, err := d.needTIP()
			if err != nil || !ok {
				// Thread exit (or truncated stream): done.
				return err
			}
			block, idx, err = d.locate(to)
			if err != nil {
				return err
			}
		default:
			idx++
			if idx >= len(block.Instrs) {
				return fmt.Errorf("pt: walked past end of block %s", block)
			}
		}
	}
}
