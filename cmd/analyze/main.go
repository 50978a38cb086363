// Command analyze runs an attribution-carrying injection campaign for one
// (core, benchmark) pair and prints what a designer hardens first: the
// per-unit AVF ranking with binomial confidence intervals, the outcome
// breakdown by pipeline structure, and the static instructions whose
// in-flight state absorbed the failing strikes.
//
//	analyze -core InO -bench gzip -samples 4
//	analyze -core OoO -bench mcf -top 8 -records recs.jsonl
//
// The campaign always computes (it never reads the on-disk campaign cache:
// cache hits replay no injections and would yield no attribution records),
// so -samples defaults low. Attribution observes without influencing — the
// printed outcome totals are bit-identical to faultinject's for the same
// configuration.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"clear/internal/analysis"
	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/isa"
	"clear/internal/obs"
)

func main() {
	coreName := flag.String("core", "InO", "core design: InO or OoO")
	benchName := flag.String("bench", "gzip", "benchmark name")
	samples := flag.Int("samples", 4, "injections per flip-flop")
	top := flag.Int("top", 12, "instruction-ranking rows to print")
	z := flag.Float64("z", 1.96, "z-score for the AVF confidence intervals (1.96 = 95%)")
	recordsOut := flag.String("records", "",
		"also write the per-injection attribution records as JSONL to this file (empty = off)")
	flag.Parse()

	var kind inject.CoreKind
	switch strings.ToLower(*coreName) {
	case "ino":
		kind = inject.InO
	case "ooo":
		kind = inject.OoO
	default:
		log.Fatalf("unknown -core %q (accepted: InO, OoO)", *coreName)
	}
	b := bench.ByName(*benchName)
	if b == nil {
		log.Fatalf("unknown benchmark %q (have: %v)", *benchName, bench.Names())
	}
	p, err := b.Program()
	if err != nil {
		log.Fatalf("program: %v", err)
	}

	e := core.NewEngine(kind)
	buf := &inject.RecordBuffer{}
	e.Inj.Sink = buf
	if *recordsOut != "" {
		tr, err := obs.OpenTrace(*recordsOut)
		if err != nil {
			log.Fatalf("-records: %v", err)
		}
		defer func() {
			if err := tr.Close(); err != nil {
				log.Printf("records: %v", err)
			}
		}()
		e.Inj.Sink = inject.MultiSink{buf, inject.TraceSink{T: tr}}
	}

	cfg := inject.Config{
		Core:         kind,
		Bench:        b.Name,
		Tag:          "base",
		SamplesPerFF: *samples,
		Seed:         e.Seed,
	}
	res, err := e.Inj.Run(cfg, p, nil)
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}

	tot := res.Totals
	fmt.Printf("%s / %s: %d injections over %d flip-flops, nominal %d cycles\n",
		kind, b.Name, tot.N, len(res.PerFF), res.NomCycles)
	fmt.Printf("outcomes: Vanished %d  OMM %d  UT %d  Hang %d  ED %d\n\n",
		tot.Vanished, tot.OMM, tot.UT, tot.Hang, tot.ED)

	fmt.Printf("unit AVF ranking (z=%.2f):\n", *z)
	fmt.Printf("%-12s %6s %7s %8s %17s %7s %7s %6s %5s %5s %5s\n",
		"unit", "bits", "N", "AVF", "95% CI", "SDC", "DUE", "OMM", "UT", "Hang", "ED")
	for _, u := range analysis.UnitRanking(e.Space, res, *z) {
		fmt.Printf("%-12s %6d %7d %7.2f%% [%6.2f%%,%6.2f%%] %6.2f%% %6.2f%% %6d %5d %5d %5d\n",
			u.Unit, u.Bits, u.N, 100*u.AVF, 100*u.CILo, 100*u.CIHi,
			100*u.SDCFrac, 100*u.DUEFrac, u.OMM, u.UT, u.Hang, u.ED)
	}

	recs := buf.Records()
	insts := analysis.InstRanking(recs, p)
	attributed := 0
	for _, c := range insts {
		attributed += c.N
	}
	fmt.Printf("\ninstruction failure contributions (%d of %d records attributed to %d static instructions):\n",
		attributed, len(recs), len(insts))
	fmt.Printf("%-6s %-22s %7s %6s %6s %7s\n", "pc", "inst", "N", "SDC", "DUE", "share")
	for i, c := range insts {
		if i >= *top {
			fmt.Printf("  ... %d more\n", len(insts)-i)
			break
		}
		name := "(out of range)"
		if c.InRange {
			name = isa.Decode(c.Word).Op.String()
		}
		fmt.Printf("%-6d %-22s %7d %6d %6d %6.2f%%\n",
			c.PC, name, c.N, c.SDC, c.DUE, 100*c.Share)
	}
	if *recordsOut != "" {
		fmt.Printf("\nwrote %d attribution records to %s\n", len(recs), *recordsOut)
	}
}
