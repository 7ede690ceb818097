// Command irvm runs a textual IR program on the simulated machine.
//
// Usage:
//
//	irvm [-seed N] [-maxsteps N] [-trace] [-watch pc,pc,...] [-races] program.ir
//	irvm -dump program.ir
//	irvm -disasm program.ir
//
// It runs the program on the VM's bytecode engine and prints the
// program's output, the failure (if any), and with -trace the
// control-flow tracer's packet statistics. -races runs it under the
// lockset race detector instead; -dump lists the parsed instructions
// with their PCs and -disasm the compiled bytecode.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"snorlax/internal/ir"
	"snorlax/internal/pt"
	"snorlax/internal/racedet"
	"snorlax/internal/vm"
	"snorlax/internal/vm/bytecode"
)

var (
	seed     = flag.Int64("seed", 1, "scheduler seed")
	trace    = flag.Bool("trace", false, "run under the simulated hardware tracer and print stats")
	watch    = flag.String("watch", "", "comma-separated PCs to timestamp")
	maxSteps = flag.Int64("maxsteps", 0, "instruction budget (0 = default)")
	dump     = flag.Bool("dump", false, "print the parsed program with PCs and exit")
	races    = flag.Bool("races", false, "run under the lockset race detector and report races")
	disasm   = flag.Bool("disasm", false, "print the compiled bytecode listing and exit")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: irvm [flags] program.ir")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	mod, err := ir.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	if *dump {
		mod.Instrs(func(in ir.Instr) {
			fmt.Printf("%5d  %-40s %s\n", in.PC(), in, in.Block())
		})
		return
	}
	if *disasm {
		fmt.Print(bytecode.Compile(mod).Disasm())
		return
	}

	if *races {
		found, res := racedet.Detect(mod, vm.Config{Seed: *seed, MaxSteps: *maxSteps})
		for _, r := range found {
			a, b := mod.InstrAt(r.First), mod.InstrAt(r.Second)
			fmt.Printf("race: %-36s [%s]\n  vs: %-36s [%s]\n", a, a.Block(), b, b.Block())
		}
		fmt.Printf("-- %d races detected\n", len(found))
		if res.Failed() {
			fmt.Printf("-- run also FAILED: %v\n", res.Failure)
		}
		if len(found) > 0 {
			os.Exit(1)
		}
		return
	}

	cfg := vm.Config{Seed: *seed, MaxSteps: *maxSteps}
	var enc *pt.Encoder
	if *trace {
		enc = pt.NewEncoder(pt.Config{})
		cfg.Sink = enc
	}
	if *watch != "" {
		cfg.WatchPCs = map[ir.PC]bool{}
		for _, part := range strings.Split(*watch, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad -watch pc %q", part))
			}
			cfg.WatchPCs[ir.PC(n)] = true
		}
	}

	res := vm.Run(mod, cfg)
	for _, line := range res.Output {
		fmt.Println(line)
	}
	fmt.Printf("-- %d steps, %d branches, %d threads, virtual time %.3fms\n",
		res.Steps, res.Branches, res.MaxThreads, float64(res.Time)/1e6)
	for _, ev := range res.Watch {
		fmt.Printf("-- watch pc=%d thread=%d t=%dns\n", ev.PC, ev.Thread, ev.Time)
	}
	if enc != nil {
		st := enc.Stats()
		fmt.Printf("-- trace: %d bytes, timing fraction %.0f%%, packets %v\n",
			st.Bytes, 100*st.TimingFraction(), st.Packets)
	}
	if res.Failed() {
		fmt.Printf("-- FAILURE: %v\n", res.Failure)
		in := mod.InstrAt(res.Failure.PC)
		fmt.Printf("--   at: %s [%s]\n", in, in.Block())
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "irvm:", err)
	os.Exit(1)
}
