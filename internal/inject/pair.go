package inject

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"clear/internal/prog"
	"clear/internal/sim"
)

// This file is the single-event-multiple-upset (SEMU) side of the engine:
// double-bit injections (one particle, two flip-flops, same cycle) and the
// campaign loop over flip-flop pairs. A pair is the two-flip special case
// of a fault scenario (see scenario.go), so pair injections share the
// scenario machinery — the same Reference warm-start, the same convergence
// pruning, and the same per-Injector counters — and SEMU work is tallied
// and accelerated exactly like the single-flip campaigns.

// pairScenario builds the two-flip same-cycle scenario of a SEMU.
func pairScenario(bitA, bitB int) Scenario {
	return Scenario{{Bit: bitA}, {Bit: bitB}}
}

// runPairCold is the from-reset pair injection: run to cycle, flip both
// bits, run to completion or the hang cutoff, classify. The returned
// detect cycle is the cycle a detection fired at (-1 unless ED).
func runPairCold(c sim.Core, p *prog.Program, bitA, bitB, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return runScenarioCold(c, p, pairScenario(bitA, bitB), cycle, nomCycles, hookFactory)
}

// RunPair is the scoped form of the package-level RunPair: the injection
// and its outcome are tallied on this injector, so standalone SEMU probes
// are visible through the same inject.* counters as campaigns.
func (in *Injector) RunPair(c sim.Core, p *prog.Program, bitA, bitB, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	in.injTotal.Add(1)
	out, det := runPairCold(c, p, bitA, bitB, cycle, nomCycles, hookFactory)
	var one Counts
	one.Add(out)
	in.addOutcomes(one)
	return out, det
}

// RunPairFrom is the pair twin of RunOneFrom: it warm-starts the injection
// from the reference trajectory's nearest snapshot, flips both bits at the
// injection cycle, and applies convergence pruning at every checkpoint
// boundary. The (Outcome, detectCycle) is identical to RunPair's for the
// same (bitA, bitB, cycle). Hook-carrying runs warm-start under the same
// commit-stream guard as RunOneFrom's, and hookFactory must obey the same
// contract: fresh state per call, a verdict that is a deterministic
// function of the program and the events seen so far, and silence on the
// fault-free run.
//
// The package-level function counts against the default injection scope;
// use the Injector method to attribute the injection to a specific scope.
func RunPairFrom(c sim.Core, p *prog.Program, ref *Reference, bitA, bitB, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return std.RunPairFrom(c, p, ref, bitA, bitB, cycle, nomCycles, hookFactory)
}

// RunPairFrom is the scoped form of the package-level RunPairFrom. Unlike
// the standalone RunPair it tallies only the injection and prune counters;
// outcome totals are batched by the campaign loop that owns it (RunPairs),
// mirroring the single-flip RunOneFrom/Run contract.
func (in *Injector) RunPairFrom(c sim.Core, p *prog.Program, ref *Reference, bitA, bitB, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return in.RunScenarioFrom(c, p, ref, pairScenario(bitA, bitB), cycle, nomCycles, hookFactory)
}

// PairConfig describes a SEMU campaign: a (core, program) pair, the sampling
// density per flip-flop pair, and the sampling seed. Tag distinguishes
// campaigns running transformed programs or hooks, as in Config.
type PairConfig struct {
	Core           CoreKind
	Bench          string
	Tag            string
	SamplesPerPair int
	Seed           uint64
}

// PairResult is a completed SEMU campaign over an explicit pair list:
// per-pair outcome tallies (indexed like the input pairs) plus totals and
// detection-latency statistics over the ED outcomes (cycles from injection
// to detection — the same accounting the single-flip Result carries).
type PairResult struct {
	Config    PairConfig
	NomCycles int
	PerPair   []Counts
	Totals    Counts
	DetLatSum int64
	DetN      int64
}

// RunPairs executes a SEMU campaign over pairs: SamplesPerPair
// uniform-random cycles for every flip-flop pair, warm-started and pruned
// through the same reference trajectory as single-flip campaigns. Pair
// lists come from the physical layout (e.g. Placement.AdjacentPairs — the
// pairs one particle can reach).
//
// The package-level function counts against the default injection scope;
// use the Injector method to attribute the campaign to a specific scope.
func RunPairs(cfg PairConfig, p *prog.Program, pairs [][2]int,
	hookFactory func(*prog.Program) sim.CommitHook) (*PairResult, error) {
	return std.RunPairs(cfg, p, pairs, hookFactory)
}

// RunPairs is the scoped form of the package-level RunPairs: injections,
// prunes, and outcome tallies land on this injector's counters.
func (in *Injector) RunPairs(cfg PairConfig, p *prog.Program, pairs [][2]int,
	hookFactory func(*prog.Program) sim.CommitHook) (*PairResult, error) {
	if p.Expected == nil {
		return nil, fmt.Errorf("inject: %s has no golden output", p.Name)
	}
	if cfg.SamplesPerPair < 0 || cfg.SamplesPerPair > math.MaxUint16 {
		return nil, fmt.Errorf("inject: SamplesPerPair %d outside [0, %d]",
			cfg.SamplesPerPair, math.MaxUint16)
	}
	nBits := SpaceBits(cfg.Core)
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= nBits || pr[1] < 0 || pr[1] >= nBits {
			return nil, fmt.Errorf("inject: pair %v outside the %d-bit flip-flop space", pr, nBits)
		}
	}
	ref, nomCycles, _, err := nominalRun(cfg.Core, p, cfg.Bench, cfg.Tag, hookFactory)
	if err != nil {
		return nil, err
	}

	res := &PairResult{
		Config:    cfg,
		NomCycles: nomCycles,
		PerPair:   make([]Counts, len(pairs)),
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	type chunk struct{ lo, hi int }
	chunks := make(chan chunk, workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			core := NewCore(cfg.Core, p)
			g := newCommitGuard(hookFactory, ref, p)
			local := make([]Counts, len(pairs))
			var totals Counts
			var latSum, latN int64
			for ch := range chunks {
				for pi := ch.lo; pi < ch.hi; pi++ {
					for s := 0; s < cfg.SamplesPerPair; s++ {
						h := splitmix64(cfg.Seed ^ uint64(pi)<<20 ^ uint64(s))
						cycle := int(h % uint64(nomCycles))
						out, det := in.runScenarioFrom(core, p, ref,
							pairScenario(pairs[pi][0], pairs[pi][1]), cycle, nomCycles, g)
						if out == ED && det >= cycle {
							latSum += int64(det - cycle)
							latN++
						}
						local[pi].Add(out)
						totals.Add(out)
					}
				}
			}
			mu.Lock()
			for i := range local {
				res.PerPair[i].Merge(local[i])
			}
			res.Totals.Merge(totals)
			res.DetLatSum += latSum
			res.DetN += latN
			mu.Unlock()
		}()
	}
	const step = 16
	for lo := 0; lo < len(pairs); lo += step {
		hi := lo + step
		if hi > len(pairs) {
			hi = len(pairs)
		}
		chunks <- chunk{lo, hi}
	}
	close(chunks)
	wg.Wait()
	in.addOutcomes(res.Totals)
	return res, nil
}
