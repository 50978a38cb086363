package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/experiments"
	"clear/internal/inject"
	"clear/internal/sweep"
	"clear/internal/swres"
)

// workloadInfo names a workload; BENCHMARK.json says why each is there.
type workloadInfo struct {
	name string
	make func(template string) workload
}

var workloads = []workloadInfo{
	{"campaigns-packed", func(string) workload { return &campaignSet{specs: packedSpecs} }},
	{"campaigns-hooked", func(string) workload { return &campaignSet{specs: hookedSpecs} }},
	{"sweep-ino", func(string) workload { return &sweepINO{} }},
	{"tables-warm", func(t string) workload { return &tablesWarm{template: t} }},
}

func lookupWorkload(name string) *workloadInfo {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// campaignSpec is one cold Engine.Campaign call.
type campaignSpec struct {
	kind  inject.CoreKind
	bench string
	v     core.Variant
}

var (
	eddiSrb   = core.Variant{SW: []core.SWTechnique{core.SWEDDI}, EDDISrb: true}
	cfcss     = core.Variant{SW: []core.SWTechnique{core.SWCFCSS}}
	assertCmb = core.Variant{SW: []core.SWTechnique{core.SWAssertions}, AssertK: swres.AssertCombined}
	abftCorr  = core.Variant{ABFT: core.ABFTCorr}
	dfc       = core.Variant{DFC: true}
	monitor   = core.Variant{Monitor: true}
)

// packedSpecs run at the engine's default sampling: programs of 305, 3020
// and 6979 nominal InO cycles, three software transforms and ABFT, and two
// OoO base campaigns.
var packedSpecs = []campaignSpec{
	{inject.InO, "eon", core.Variant{}},
	{inject.InO, "gzip", core.Variant{}},
	{inject.InO, "2d_convolution", core.Variant{}},
	{inject.InO, "gzip", eddiSrb},
	{inject.InO, "gzip", cfcss},
	{inject.InO, "gzip", assertCmb},
	{inject.InO, "2d_convolution", abftCorr},
	{inject.OoO, "inner_product", core.Variant{}},
	{inject.OoO, "gzip", core.Variant{}},
}

// hookedSpecs carry a commit hook, at the default technique sampling.
var hookedSpecs = []campaignSpec{
	{inject.OoO, "inner_product", dfc},
	{inject.OoO, "inner_product", monitor},
	{inject.InO, "gzip", dfc},
	{inject.InO, "2d_convolution", dfc},
}

// campaignSet runs each spec as one operation on fresh engines.
type campaignSet struct {
	specs   []campaignSpec
	engines map[inject.CoreKind]*core.Engine
	results []*inject.Result
	ops     []*op
}

func (c *campaignSet) setup(r *rep) error {
	c.engines = map[inject.CoreKind]*core.Engine{}
	for _, s := range c.specs {
		e := c.engines[s.kind]
		if e == nil {
			e = r.engine(s.kind, false)
			c.engines[s.kind] = e
		}
		if _, err := r.program(e, bench.ByName(s.bench), s.v); err != nil {
			return err
		}
	}
	return nil
}

func (c *campaignSet) run(r *rep) {
	c.results = make([]*inject.Result, len(c.specs))
	for i, s := range c.specs {
		e, b := c.engines[s.kind], bench.ByName(s.bench)
		c.ops = append(c.ops, r.do("core.campaign", campaignKey(s.kind, s.bench, s.v.Tag()), func(int64, int64) error {
			res, err := e.Campaign(b, s.v)
			c.results[i] = res
			return err
		}))
	}
}

func (c *campaignSet) check(r *rep) {
	want := r.golden[r.name]
	for i, s := range c.specs {
		if c.results[i] != nil {
			r.checkCampaign(c.ops[i], want, c.engines[s.kind], bench.ByName(s.bench), s.v, c.results[i])
		}
	}
}

// probe times, beside each campaign, the layers inject.Run calls inside
// it: the nominal run, the reference build, and Injector.Run itself on a
// scratch injector so the engines' counters stay exact.
func (c *campaignSet) probe(r *rep) {
	scratch := inject.NewInjector()
	for i, s := range c.specs {
		e, b, o := c.engines[s.kind], bench.ByName(s.bench), c.ops[i]
		p, err := e.BuildProgram(b, s.v)
		if err != nil {
			continue // reported by check
		}
		hook := hookFactory(s.v)
		r.probeSim(0, o.id, s.kind, p, hook != nil)
		label := "packed"
		if hook != nil {
			label = "hooked"
		}
		r.tr.dup("inject.run", label, 0, o.id, func() int64 {
			res, err := scratch.Run(configOf(e, b, s.v), p, hook)
			if err != nil {
				o.fail(err.Error())
				return 0
			}
			if c.results[i] != nil && digest(res) != digest(c.results[i]) {
				o.fail(fmt.Sprintf("%s: a second Injector.Run gave a different result", o.name))
			}
			return int64(res.Totals.N) * int64(res.NomCycles)
		})
	}
}

// sweepTarget is clearsweep's default SDC improvement target.
const sweepTarget = 50

// sweepINO is one cold clearsweep over every InO combination on crafty at
// quick sampling.
type sweepINO struct {
	e        *core.Engine
	b        *bench.Benchmark
	sw       sweep.Sweep
	variants []core.Variant // distinct campaign variants, in combination order
	res      *sweep.Result
	err      error
	ops      map[string]*op // by combination name
}

func (s *sweepINO) setup(r *rep) error {
	s.e = r.engine(inject.InO, true)
	s.b = bench.ByName("crafty")
	s.sw = sweep.New(s.e, []*bench.Benchmark{s.b}, core.SDC, sweepTarget)
	seen := map[string]bool{}
	for _, c := range s.sw.Combos {
		if tag := c.Variant.Tag(); !seen[tag] {
			seen[tag] = true
			s.variants = append(s.variants, c.Variant)
			if _, err := r.program(s.e, s.b, c.Variant); err != nil {
				return err
			}
		}
	}
	return nil
}

// cellOps registers every cell as an operation, once, outside the set-up
// and timed regions of an untraced run.
func (s *sweepINO) cellOps(r *rep) {
	if s.ops != nil {
		return
	}
	s.ops = map[string]*op{}
	for _, c := range s.sw.Combos {
		o := &op{name: c.Name(), id: int64(len(r.ops) + 1)}
		r.ops = append(r.ops, o)
		s.ops[c.Name()] = o
	}
}

func (s *sweepINO) cells() int64 {
	if s.res == nil {
		return 0
	}
	return int64(s.res.Evaluated)
}

func (s *sweepINO) run(r *rep) {
	sw := s.sw
	run := r.tr.begin("sweep.run", r.timedID, 0)
	if r.tr != nil {
		s.cellOps(r)
		// Traced: time each cell, and the campaigns it needs as calls into
		// the engine ahead of its evaluation (the evaluation then finds
		// them memoized, so no work is repeated). These calls add to the
		// engine's memo counters, so the report takes campaigns_joined and
		// campaigns_cached from an untraced repetition.
		eval := sw.Eval
		sw.Eval = func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
			id := s.ops[c.Name()].id
			cell := r.tr.begin("sweep.cell", run.id(), id)
			defer cell.end()
			for _, v := range []core.Variant{{}, c.Variant} {
				var err error
				r.tr.do("core.campaign", cell.id(), id, func() { _, err = s.e.Campaign(b, v) })
				if err != nil {
					return core.Outcome{}, err
				}
			}
			var out core.Outcome
			var err error
			r.tr.do("sweep.eval", cell.id(), id, func() { out, err = eval(c, b) })
			return out, err
		}
	}
	s.res, s.err = sweep.Run(context.Background(), sw, sweep.Options{
		Workers:           runtime.GOMAXPROCS(0),
		CellTimeoutFactor: 20, // clearsweep's default watchdog
	})
	run.end()
}

func (s *sweepINO) check(r *rep) {
	s.cellOps(r)
	if s.err != nil {
		for _, o := range s.ops {
			o.fail("sweep: " + s.err.Error())
		}
		return
	}
	for _, f := range s.res.Failures {
		if o := s.ops[f.Combo]; o != nil {
			o.fail(fmt.Sprintf("%s: %s: %s", f.Combo, f.Kind, f.Err))
		}
	}
	for name, reason := range checkSweep(s.res, s.sw.Combos, sweepTarget) {
		if o := s.ops[name]; o != nil {
			o.fail(reason)
		} else {
			r.failures = append(r.failures, reason)
		}
	}
	// A campaign that fails its checks fails every cell that used it; every
	// cell uses the unprotected campaign.
	want := r.golden[r.name]
	for _, v := range s.variants {
		res, err := s.e.Campaign(s.b, v)
		probe := &op{}
		if err != nil {
			probe.fail(err.Error())
		} else {
			r.checkCampaign(probe, want, s.e, s.b, v, res)
		}
		if probe.reason == "" {
			continue
		}
		for _, c := range s.sw.Combos {
			if v.Tag() == "base" || c.Variant.Tag() == v.Tag() {
				s.ops[c.Name()].fail(probe.reason)
			}
		}
	}
}

func (s *sweepINO) probe(r *rep) {
	for _, v := range s.variants {
		p, err := s.e.BuildProgram(s.b, v)
		if err != nil {
			continue // reported by check
		}
		r.probeSim(0, 0, inject.InO, p, hookFactory(v) != nil)
	}
}

// tableIDs are the experiments of tables-warm: together they need only the
// 29 unprotected campaigns (18 InO, 11 OoO).
var tableIDs = []string{"ablation1", "table17", "table20", "table25", "table26", "fig9", "fig10"}

// tablesWarm regenerates experiments on a fresh quick-sampling context
// whose cache directory starts as a copy of a pre-filled template.
type tablesWarm struct {
	template string
	ctx      *experiments.Ctx
	exps     []experiments.Experiment
	texts    []string
	ops      []*op
}

func (t *tablesWarm) setup(r *rep) error {
	if t.template == "" {
		return fmt.Errorf("tables-warm needs a filled cache template")
	}
	var err error
	r.tr.do("setup.cache_copy", r.setupID, 0, func() { err = copyDir(t.template, os.Getenv("CLEAR_CACHE_DIR")) })
	if err != nil {
		return err
	}
	r.tr.do("core.new_engine", r.setupID, 0, func() { t.ctx = experiments.NewCtx() })
	for _, e := range []*core.Engine{t.ctx.InO, t.ctx.OoO} {
		r.adopt(e, true)
		for _, b := range e.Benchmarks() {
			if _, err := r.program(e, b, core.Variant{}); err != nil {
				return err
			}
		}
	}
	for _, id := range tableIDs {
		x, ok := experiments.Get(id)
		if !ok {
			return fmt.Errorf("unknown experiment %s", id)
		}
		t.exps = append(t.exps, x)
	}
	return nil
}

func (t *tablesWarm) run(r *rep) {
	t.texts = make([]string, len(t.exps))
	for i, x := range t.exps {
		t.ops = append(t.ops, r.do("experiments."+x.ID, x.ID, func(int64, int64) error {
			text, err := x.Run(t.ctx)
			t.texts[i] = text
			return err
		}))
	}
}

func (t *tablesWarm) check(r *rep) {
	// No campaign may be computed in the timed region: every one must come
	// from the filled cache.
	if n := r.after.inj.CacheMisses - r.before.inj.CacheMisses; n != 0 {
		for _, o := range t.ops {
			o.fail(fmt.Sprintf("%s: %d campaigns missed the filled cache", o.name, n))
		}
	}
	for i, o := range t.ops {
		if o.reason == "" {
			if err := checkText(o.name, t.texts[i]); err != nil {
				o.fail(err.Error())
			}
		}
	}
	// Every experiment rests on the unprotected campaigns it read.
	want := r.golden[r.name]
	for _, e := range []*core.Engine{t.ctx.InO, t.ctx.OoO} {
		for _, b := range e.Benchmarks() {
			probe := &op{}
			if res, err := e.Base(b); err != nil {
				probe.fail(err.Error())
			} else {
				r.checkCampaign(probe, want, e, b, core.Variant{}, res)
			}
			if probe.reason != "" {
				for _, o := range t.ops {
					o.fail(probe.reason)
				}
			}
		}
	}
}

// probe times, per campaign, the cache hit an engine serves from disk on
// a scratch injector.
func (t *tablesWarm) probe(r *rep) {
	scratch := inject.NewInjector()
	for _, e := range []*core.Engine{t.ctx.InO, t.ctx.OoO} {
		for _, b := range e.Benchmarks() {
			p, err := e.BuildProgram(b, core.Variant{})
			if err != nil {
				continue
			}
			r.tr.dup("inject.cache_hit", "", 0, 0, func() int64 {
				_, _ = scratch.Campaign(configOf(e, b, core.Variant{}), p, nil) // checked through the hit count below
				return 0
			})
		}
	}
	if s := scratch.Snapshot(); s.CacheMisses != 0 {
		r.failures = append(r.failures, fmt.Sprintf("tables-warm: %d campaigns missed the filled cache", s.CacheMisses))
	}
}

// fill computes the tables-warm campaigns into dir, as a user's precompute
// would, and returns their digests.
func fill(dir string, seed uint64, g golden) (map[string]string, []string, error) {
	if err := os.Setenv("CLEAR_CACHE_DIR", dir); err != nil {
		return nil, nil, err
	}
	r := &rep{seed: seed, golden: g, digests: map[string]string{}, built: map[string]bool{}}
	ctx := experiments.NewCtx()
	var failures []string
	for _, e := range []*core.Engine{ctx.InO, ctx.OoO} {
		e.Seed = seed
		e.SamplesBase, e.SamplesTech = 1, 1
		for _, b := range e.Benchmarks() {
			o := &op{}
			if res, err := e.Base(b); err != nil {
				o.fail(err.Error())
			} else {
				r.checkCampaign(o, g[fillKey], e, b, core.Variant{}, res)
			}
			if o.reason != "" {
				failures = append(failures, o.reason)
			}
		}
	}
	return r.digests, failures, nil
}

// copyDir copies the regular files of src into the existing directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
