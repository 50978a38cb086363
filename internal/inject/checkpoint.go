package inject

import (
	"fmt"

	"clear/internal/prog"
	"clear/internal/sim"
)

// CheckpointInterval is the spacing, in cycles, of the fault-free reference
// snapshots recorded during a campaign's nominal run. Each injection then
// restores the nearest preceding snapshot and steps at most
// CheckpointInterval-1 cycles to reach its injection point instead of
// replaying from reset, and the same snapshots drive convergence pruning
// (see RunOneFrom). Smaller intervals cut more warm-up cycles but cost more
// snapshot memory; 0 disables checkpointing entirely (every injection
// replays from reset, the pre-checkpoint behavior).
//
// The interval only affects campaign running time: results are bit-for-bit
// identical for any value, so it is deliberately not part of Config and
// does not key the on-disk campaign cache. The default suits this repo's
// workloads (nominal runs of a few hundred to a few thousand cycles); scale
// it with nominal length for longer programs.
var CheckpointInterval = 256

// Reference is the fault-free trajectory of one (core, program) pair:
// snapshots taken every Interval cycles during the nominal run, plus the
// run's commit stream. Ckpts[i] holds the state at cycle i*Interval; the
// last snapshot precedes the nominal halt. Events is every sim.CommitEvent
// of the nominal run in retirement order, and EvAt[i] is the number of
// events committed before Ckpts[i] was taken — the prefix a commit-stream
// checker has seen at that checkpoint (see commitGuard). BuildReference is
// the only constructor, so EvAt always has one entry per checkpoint.
// References are immutable and shared read-only by the campaign worker
// goroutines.
type Reference struct {
	Interval int
	Ckpts    []*sim.Checkpoint
	Events   []sim.CommitEvent
	EvAt     []int
}

// usable reports whether r can warm-start injections (a nil Reference, or
// one without snapshots, sends them down the from-reset path).
func (r *Reference) usable() bool {
	return r != nil && r.Interval > 0 && len(r.Ckpts) > 0
}

// BuildReference performs the fault-free run of p on a fresh core of kind k,
// snapshotting every interval cycles (including cycle 0) and recording the
// commit stream, and returns the reference trajectory together with the
// nominal run's result. The result is exactly what Core.Run(maxCycles) on a
// fresh core would report. A non-positive interval is rejected (it cannot
// space snapshots).
func BuildReference(k CoreKind, p *prog.Program, interval, maxCycles int) (*Reference, prog.Result, error) {
	ref, res, _, err := buildReferenceCore(k, p, interval, maxCycles, nil)
	return ref, res, err
}

// buildReferenceCore is BuildReference, also exposing the finished nominal
// core (the campaign records its retired-instruction count). A non-nil
// hookFactory runs the campaign's checker beside the recorder, so a checker
// that fires on the fault-free run ends it with prog.StatusDetected exactly
// as a from-reset nominal run would.
func buildReferenceCore(k CoreKind, p *prog.Program, interval, maxCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (*Reference, prog.Result, sim.Core, error) {
	if interval <= 0 {
		return nil, prog.Result{}, nil, fmt.Errorf("inject: checkpoint interval %d must be positive", interval)
	}
	c := NewCore(k, p)
	ref := &Reference{Interval: interval}
	var check sim.CommitHook
	if hookFactory != nil {
		check = hookFactory(p)
	}
	c.SetCommitHook(func(ev sim.CommitEvent) bool {
		ref.Events = append(ref.Events, ev)
		return check != nil && check(ev)
	})
	for !c.Done() && c.Cycles() < maxCycles {
		if c.Cycles()%interval == 0 {
			ref.Ckpts = append(ref.Ckpts, c.Snapshot())
			ref.EvAt = append(ref.EvAt, len(ref.Events))
		}
		c.Step()
	}
	if !c.Done() {
		return ref, prog.Result{Status: prog.StatusMaxSteps, Output: c.Output(), Steps: c.Cycles()}, c, nil
	}
	return ref, c.Result(), c, nil
}

// commitGuard stands in for a campaign's commit-stream checker on one
// worker core during warm-started injections. Armed after every Restore,
// it compares each commit with the reference stream: while the run's
// history equals the nominal one, the checker is not run at all — a
// checker that obeys the sim.CommitHook contract stayed silent on exactly
// this prefix in the nominal run, and its state is a function of the
// prefix alone. At the first differing event the guard builds the real
// checker, replays the reference prefix into it (reaching the state it
// would hold on a from-reset run) and hands it this and every later event,
// so verdicts equal the from-reset path's. A guard that is still clean at
// a checkpoint boundary, with exactly the reference's event count there,
// also lets the convergence prune stand: equal core state and equal commit
// history mean equal checker state, whose future is the fault-free one.
type commitGuard struct {
	newHook func(*prog.Program) sim.CommitHook
	ref     *Reference
	p       *prog.Program
	n       int            // reference events matched so far
	h       sim.CommitHook // the real checker, once the stream deviated
	hook    sim.CommitHook // observe, bound once so arming does not allocate
}

// newCommitGuard returns the guard for a worker core, or nil for a hookless
// run (a nil guard installs no hook and never blocks a prune).
func newCommitGuard(hookFactory func(*prog.Program) sim.CommitHook, ref *Reference, p *prog.Program) *commitGuard {
	if hookFactory == nil {
		return nil
	}
	g := &commitGuard{newHook: hookFactory, ref: ref, p: p}
	g.hook = g.observe
	return g
}

// factory returns the guarded checker factory, nil for a nil guard (the
// from-reset paths attach the checker directly).
func (g *commitGuard) factory() func(*prog.Program) sim.CommitHook {
	if g == nil {
		return nil
	}
	return g.newHook
}

// arm installs the guard on c, just restored to checkpoint idx.
func (g *commitGuard) arm(c sim.Core, idx int) {
	if g == nil {
		c.SetCommitHook(nil)
		return
	}
	g.n = g.ref.EvAt[idx]
	g.h = nil
	c.SetCommitHook(g.hook)
}

func (g *commitGuard) observe(ev sim.CommitEvent) bool {
	if g.h == nil {
		if g.n < len(g.ref.Events) && ev == g.ref.Events[g.n] {
			g.n++
			return false
		}
		g.h = g.newHook(g.p)
		for _, e := range g.ref.Events[:g.n] {
			g.h(e)
		}
	}
	return g.h(ev)
}

// clean reports whether the run's commit history equals the reference's
// at checkpoint i, the condition a boundary prune needs on a hooked run.
func (g *commitGuard) clean(i int) bool {
	return g == nil || (g.h == nil && g.n == g.ref.EvAt[i])
}

// RunOneFrom performs a single injection like RunOne but warm-starts from
// the reference trajectory: it restores the nearest snapshot at or before
// the injection cycle, steps the remaining cycle-mod-interval cycles, flips
// the bit, and runs to completion with convergence pruning — at every
// checkpoint boundary the injected state is compared against the fault-free
// snapshot for the same cycle, and an exact match ends the run immediately
// as Vanished (two bit-identical states of a deterministic core share the
// same future, and the reference future halts with the golden output).
//
// The returned (Outcome, detectCycle) is identical to RunOne's for the same
// (bit, cycle): restoring reproduces the exact pre-injection state, and
// pruning only replaces a suffix whose outcome is already decided. A run
// carrying a commit hook warm-starts too: the reference's recorded commit
// stream guards it (see commitGuard), running the checker only once the
// stream deviates and pruning only while it has not. hookFactory must obey
// the sim.CommitHook contract: each call returns a checker with fresh
// state, whose verdict is a deterministic function of the program and the
// events it has seen, and which stays silent on the fault-free run (Run and
// RunPairs check this on their nominal run; a caller passing its own
// Reference vouches for it). ref must come from BuildReference, the only
// constructor, so that it carries the commit stream the guard reads; a nil
// or checkpoint-less ref replays from reset.
//
// The package-level function counts against the default injection scope;
// use the Injector method to attribute the injection to a specific scope.
func RunOneFrom(c sim.Core, p *prog.Program, ref *Reference, bit, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return std.RunOneFrom(c, p, ref, bit, cycle, nomCycles, hookFactory)
}

// RunOneFrom is the scoped form of the package-level RunOneFrom: the
// injection and any convergence prune are tallied on this injector.
func (in *Injector) RunOneFrom(c sim.Core, p *prog.Program, ref *Reference, bit, cycle, nomCycles int,
	hookFactory func(*prog.Program) sim.CommitHook) (Outcome, int) {
	return in.runOneFrom(c, p, ref, bit, cycle, nomCycles, newCommitGuard(hookFactory, ref, p))
}

// runOneFrom is RunOneFrom with the caller's guard, so a campaign worker
// reuses one guard across all of its injections.
func (in *Injector) runOneFrom(c sim.Core, p *prog.Program, ref *Reference, bit, cycle, nomCycles int,
	g *commitGuard) (Outcome, int) {
	in.injTotal.Add(1)
	if !ref.usable() {
		if in.Sink == nil {
			return RunOne(c, p, bit, cycle, nomCycles, g.factory())
		}
		// The single-bit cold path is the one-flip scenario's (identical
		// stepping, flip, and classification), and the scenario path carries
		// the attribution observation.
		return runScenarioColdObs(in, c, p, Scenario{{Bit: bit}}, cycle, nomCycles, g.factory())
	}
	return in.runOneWarm(c, p, ref, bit, cycle, nomCycles, g)
}

// runOneWarm is the warm-started single-flip injection body shared by
// RunOneFrom and the packed engine's spill replays (batch.go, where g is
// nil); the caller has already tallied the injection and ruled out the
// cold fallback.
func (in *Injector) runOneWarm(c sim.Core, p *prog.Program, ref *Reference, bit, cycle, nomCycles int,
	g *commitGuard) (Outcome, int) {
	idx := cycle / ref.Interval
	if idx >= len(ref.Ckpts) {
		idx = len(ref.Ckpts) - 1
	}
	c.Restore(ref.Ckpts[idx])
	g.arm(c, idx)
	for c.Cycles() < cycle && !c.Done() {
		c.Step()
	}
	sinkOn := in.Sink != nil
	var rec Record
	if sinkOn {
		rec = observe(c, bit, cycle)
	}
	c.State().FlipBit(bit)
	out, det := in.finishInjected(c, p, ref, cycle, nomCycles, g)
	if sinkOn {
		in.emit(rec, out, det)
	}
	return out, det
}

// finishInjected runs the already-injected remainder of a warm-started run:
// step to each checkpoint boundary, end as Vanished the moment the state
// reconverges with the fault-free reference and the guard g is still clean
// with the reference's event count, classify at completion or the hang
// budget. It is the common tail of runOneWarm and runScenarioWarm, and the
// packed engine continues evicted (always hookless, g nil) lanes through it
// — an evicted lane holds exactly the state the scalar path would have at
// the same cycle (lanes step the same deterministic core), so the
// continuation's boundary checks and classification reproduce the scalar
// outcome bit for bit.
func (in *Injector) finishInjected(c sim.Core, p *prog.Program, ref *Reference, cycle, nomCycles int,
	g *commitGuard) (Outcome, int) {
	budget := HangFactor * nomCycles
	for !c.Done() && c.Cycles() < budget {
		next := (c.Cycles()/ref.Interval + 1) * ref.Interval
		if next > budget {
			next = budget
		}
		for !c.Done() && c.Cycles() < next {
			c.Step()
		}
		if c.Done() {
			break
		}
		if i := c.Cycles() / ref.Interval; c.Cycles()%ref.Interval == 0 && i < len(ref.Ckpts) &&
			g.clean(i) && c.Matches(ref.Ckpts[i]) {
			in.injPruned.Add(1)
			in.pruneCycles.Observe(int64(c.Cycles() - cycle))
			return Vanished, -1
		}
	}
	var res prog.Result
	if c.Done() {
		res = c.Result()
	} else {
		res = prog.Result{Status: prog.StatusMaxSteps, Output: c.Output(), Steps: c.Cycles()}
	}
	out := Classify(p, res)
	det := -1
	if out == ED {
		det = res.Steps
	}
	return out, det
}
