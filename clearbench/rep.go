package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/obs"
	"clear/internal/prog"
	"clear/internal/sim"
	"clear/internal/technique"
)

// repOut is what one repetition reports to the parent process.
type repOut struct {
	SetupS      float64            `json:"setup_s"`
	WallS       float64            `json:"wall_s"`
	PeakHeapMiB float64            `json:"peak_heap_mib"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Counts      map[string]int64   `json:"counts"` // must repeat exactly for one seed
	Sched       map[string]int64   `json:"sched"`  // depend on scheduling
	Digests     map[string]string  `json:"digests"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

// op is one operation of a repetition: a campaign, a sweep cell or an
// experiment.
type op struct {
	name   string
	id     int64
	reason string // empty unless the operation failed
}

// rep is the state of one repetition: a fresh process, fresh engines and
// a fresh cache directory.
type rep struct {
	name     string // workload
	seed     uint64
	tr       *tracer
	golden   golden
	setupID  int64
	timedID  int64
	engines  []*core.Engine
	reg      *obs.Registry
	built    map[string]bool // benchmarks assembled and translated
	ops      []*op
	digests  map[string]string
	failures []string
	// before and after are the counters at the ends of the timed region.
	before, after counters
}

// workload is one benchmark scenario. setup builds everything a
// repetition touches before the timed region; run is the timed region;
// check verifies the outputs; probe makes the traced run's duplicated
// calls into layers that run inside another layer's public function.
type workload interface {
	setup(r *rep) error
	run(r *rep)
	check(r *rep)
	probe(r *rep)
}

func (r *rep) engine(kind inject.CoreKind, quick bool) *core.Engine {
	var e *core.Engine
	r.tr.do("core.new_engine", r.setupID, 0, func() { e = core.NewEngine(kind) })
	r.adopt(e, quick)
	return e
}

// adopt seeds an engine constructed elsewhere and registers it for the
// repetition's counters.
func (r *rep) adopt(e *core.Engine, quick bool) {
	e.Seed = r.seed
	if quick {
		e.SamplesBase, e.SamplesTech = 1, 1
	}
	e.Instrument(r.reg)
	r.engines = append(r.engines, e)
}

// program builds the variant program of a benchmark, timing assembly and
// translation of the unprotected program on its first use in the process.
func (r *rep) program(e *core.Engine, b *bench.Benchmark, v core.Variant) (*prog.Program, error) {
	if !r.built[b.Name] {
		var base *prog.Program
		var err error
		r.tr.do("bench.program", r.setupID, 0, func() { base, err = b.Program() })
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", b.Name, err)
		}
		r.tr.do("tcode.translate", r.setupID, 0, func() { base.Threaded() })
		r.built[b.Name] = true
	}
	if v.Tag() == "base" {
		return e.BuildProgram(b, v)
	}
	var p *prog.Program
	var err error
	r.tr.do("core.build_program", r.setupID, 0, func() { p, err = e.BuildProgram(b, v) })
	if err != nil {
		return nil, fmt.Errorf("build %s/%s: %w", b.Name, v.Tag(), err)
	}
	return p, nil
}

// do runs one operation of the timed region as a span named name,
// recovering a panic as a failure.
func (r *rep) do(spanName, opName string, f func(parent, id int64) error) *op {
	o := &op{name: opName, id: int64(len(r.ops) + 1)}
	r.ops = append(r.ops, o)
	sp := r.tr.begin(spanName, r.timedID, o.id)
	func() {
		defer func() {
			if p := recover(); p != nil {
				o.reason = fmt.Sprintf("%s: panic: %v", opName, p)
			}
		}()
		if err := f(sp.id(), o.id); err != nil {
			o.reason = fmt.Sprintf("%s: %v", opName, err)
		}
	}()
	sp.end()
	return o
}

func (o *op) fail(reason string) {
	if o.reason == "" {
		o.reason = reason
	}
}

// checkCampaign verifies a result and records its digest.
func (r *rep) checkCampaign(o *op, want map[string]string, e *core.Engine, b *bench.Benchmark, v core.Variant, res *inject.Result) {
	p, err := e.BuildProgram(b, v)
	if err != nil {
		o.fail(err.Error())
		return
	}
	key := campaignKey(e.Kind, b.Name, v.Tag())
	d, err := checkCampaign(want, key, e.Kind, p, samplesOf(e, v), res)
	r.digests[key] = d
	if err != nil {
		o.fail(err.Error())
	}
}

func samplesOf(e *core.Engine, v core.Variant) int {
	if v.Tag() == "base" {
		return e.SamplesBase
	}
	return e.SamplesTech
}

func configOf(e *core.Engine, b *bench.Benchmark, v core.Variant) inject.Config {
	return inject.Config{
		Core:         e.Kind,
		Bench:        b.Name,
		Tag:          inject.ModelTag(e.FaultModel, v.Tag()),
		SamplesPerFF: samplesOf(e, v),
		Seed:         e.Seed,
	}
}

// hookFactory composes the variant's commit-stream checkers the way the
// engine does: every active Hooker sees each commit and detections are
// ORed. It returns nil for a variant without checkers.
func hookFactory(v core.Variant) func(*prog.Program) sim.CommitHook {
	var hookers []technique.Hooker
	for _, t := range (core.Combo{Variant: v}).ActiveTechniques() {
		if h, ok := t.(technique.Hooker); ok {
			hookers = append(hookers, h)
		}
	}
	if len(hookers) == 0 {
		return nil
	}
	return func(p *prog.Program) sim.CommitHook {
		hooks := make([]sim.CommitHook, len(hookers))
		for i, h := range hookers {
			hooks[i] = h.Hook(p)
		}
		return func(ev sim.CommitEvent) bool {
			det := false
			for _, h := range hooks {
				if h(ev) {
					det = true
				}
			}
			return det
		}
	}
}

// nominalReps is how often a probe repeats a nominal run, as perfbench does,
// so the throughput reading covers more than one short program.
const nominalReps = 10

// probeSim times the nominal run and, for a hookless campaign, the
// reference build that inject.Run performs inside a campaign.
func (r *rep) probeSim(parent, opID int64, kind inject.CoreKind, p *prog.Program, hooked bool) {
	c := inject.NewCore(kind, p)
	r.tr.dup("sim.nominal", kind.String(), parent, opID, func() int64 {
		cycles := 0
		for i := 0; i < nominalReps; i++ {
			c.Reset(p)
			cycles += c.Run(nomBudget).Steps
		}
		return int64(cycles)
	})
	if !hooked {
		r.tr.dup("inject.reference", "", parent, opID, func() int64 {
			// The reference run's outcome is the nominal run's, which the
			// output checks verify.
			_, _, _ = inject.BuildReference(kind, p, inject.CheckpointInterval, nomBudget)
			return 0
		})
	}
}

// heapPeak records the live heap of every GC cycle that ends while it
// runs: what the run's data occupies, without the garbage the pacer lets
// accumulate between cycles.
type heapPeak struct {
	stop, done chan struct{}
	s          []metrics.Sample // live heap, completed GC cycles
	cycles     uint64
	live       []uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		s:    []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}},
	}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	metrics.Read(h.s)
	if c := h.s[1].Value.Uint64(); len(h.live) == 0 || c != h.cycles {
		h.cycles = c
		h.live = append(h.live, h.s[0].Value.Uint64())
	}
}

// end stops the sampler and returns the peak in MiB: the 99th percentile
// of the cycles' live heap, not the maximum, because a cycle whose
// concurrent mark runs long counts everything allocated meanwhile as live,
// so the single largest reading mostly measures host scheduling. With
// fewer than a hundred cycles this is the maximum.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	sort.Slice(h.live, func(i, j int) bool { return h.live[i] < h.live[j] })
	n := len(h.live)
	return float64(h.live[n-1-n/100]) / (1 << 20)
}

type counters struct {
	inj   inject.Snapshot
	eng   core.EngineStats
	prune [2]int64 // prune-cycle histogram count, sum
	mem   runtime.MemStats
}

func (r *rep) counters() counters {
	var c counters
	for _, e := range r.engines {
		s := e.Inj.Snapshot()
		c.inj.TotalInjections += s.TotalInjections
		c.inj.PrunedInjections += s.PrunedInjections
		c.inj.CacheHits += s.CacheHits
		c.inj.CacheMisses += s.CacheMisses
		c.inj.Quarantined += s.Quarantined
		st := e.Stats()
		c.eng.CampaignsRun += st.CampaignsRun
		c.eng.CampaignsJoined += st.CampaignsJoined
		c.eng.CampaignsCached += st.CampaignsCached
		h := r.reg.Histogram(pruneHist(e.Kind))
		c.prune[0] += h.Count()
		c.prune[1] += h.Sum()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func pruneHist(kind inject.CoreKind) string {
	if kind == inject.InO {
		return "inject.ino.injections.prune_cycles"
	}
	return "inject.ooo.injections.prune_cycles"
}

// runRep performs one repetition of w and writes its report to out. When
// spansPath is non-empty the repetition is traced and its spans are
// written there; with setupOnly it stops after the set-up.
func runRep(name string, w workload, seed uint64, g golden, dir, spansPath string, setupOnly bool, out io.Writer) error {
	r := &rep{
		name:    name,
		seed:    seed,
		golden:  g,
		reg:     obs.NewRegistry(),
		built:   map[string]bool{},
		digests: map[string]string{},
	}
	if spansPath != "" {
		r.tr = newTracer()
	}
	setup := r.tr.begin("setup", 0, 0)
	r.setupID = setup.id()
	t0 := time.Now()
	cacheDir := filepath.Join(dir, "cache")
	if err := os.Mkdir(cacheDir, 0o755); err != nil {
		return err
	}
	if err := os.Setenv("CLEAR_CACHE_DIR", cacheDir); err != nil {
		return err
	}
	if err := w.setup(r); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setupS := time.Since(t0).Seconds()
	setup.end()
	if setupOnly {
		return writeJSON(out, repOut{SetupS: setupS})
	}

	runtime.GC() // start every timed region from the same heap
	r.before = r.counters()
	timed := r.tr.begin("timed", 0, 0)
	r.timedID = timed.id()
	peak := startHeapPeak()
	t1 := time.Now()
	w.run(r)
	wallS := time.Since(t1).Seconds()
	peakMiB := peak.end()
	timed.end()
	r.after = r.counters()
	before, after := r.before, r.after

	w.check(r)
	if r.tr != nil {
		w.probe(r) // the duplicated calls check their results too
	}
	res := repOut{
		SetupS:      setupS,
		WallS:       wallS,
		PeakHeapMiB: peakMiB,
		Attempted:   len(r.ops),
		Counts: map[string]int64{
			"inject.injections":   after.inj.TotalInjections - before.inj.TotalInjections,
			"inject.pruned":       after.inj.PrunedInjections - before.inj.PrunedInjections,
			"inject.cache_hits":   after.inj.CacheHits - before.inj.CacheHits,
			"inject.cache_misses": after.inj.CacheMisses - before.inj.CacheMisses,
			"inject.quarantined":  after.inj.Quarantined - before.inj.Quarantined,
			"core.campaigns_run":  after.eng.CampaignsRun - before.eng.CampaignsRun,
		},
		Sched: map[string]int64{
			"core.campaigns_joined": after.eng.CampaignsJoined - before.eng.CampaignsJoined,
			"core.campaigns_cached": after.eng.CampaignsCached - before.eng.CampaignsCached,
		},
		Digests: r.digests,
	}
	if s, ok := w.(interface{ cells() int64 }); ok {
		res.Counts["sweep.cells"] = s.cells()
	}
	for _, o := range r.ops {
		if o.reason != "" {
			res.Failed++
			res.Failures = append(res.Failures, o.reason)
		}
	}
	res.Failures = append(res.Failures, r.failures...)
	if r.tr != nil {
		res.Layers = layerMetrics(r.tr.spans, res, before, after, wallS)
		if err := r.tr.writeJSONL(spansPath); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return writeJSON(out, res)
}

// layerMetrics derives the per-layer metrics of a traced repetition from
// its spans and counter deltas.
func layerMetrics(spans []span, res repOut, before, after counters, wallS float64) map[string]float64 {
	m := map[string]float64{}
	for _, n := range layerNames {
		m[n.name] = 0
	}
	sum := func(name string) float64 {
		t := 0.0
		for _, s := range spans {
			if s.Name == name {
				t += s.seconds()
			}
		}
		return t
	}
	m["bench.program_s"] = sum("bench.program")
	m["tcode.translate_s"] = sum("tcode.translate")
	m["core.new_engine_s"] = sum("core.new_engine")
	m["core.build_program_s"] = sum("core.build_program")
	m["inject.reference_s"] = sum("inject.reference")
	m["inject.cache_hit_s"] = sum("inject.cache_hit")
	m["core.campaign_s"] = sum("core.campaign")

	var simCyc, simSec [2]float64
	var runCyc, runSec = map[string]float64{}, map[string]float64{}
	var cells []float64
	var dupS float64
	for _, s := range spans {
		if s.Dup {
			dupS += s.seconds()
		}
		switch s.Name {
		case "sim.nominal":
			k := 0
			if s.Label == inject.OoO.String() {
				k = 1
			}
			simCyc[k] += float64(s.Cycles)
			simSec[k] += s.seconds()
		case "inject.run":
			runCyc[s.Label] += float64(s.Cycles)
			runSec[s.Label] += s.seconds()
		case "sweep.cell":
			cells = append(cells, s.seconds())
		}
	}
	if simSec[0] > 0 {
		m["sim.ino.mcyc_per_s"] = simCyc[0] / simSec[0] / 1e6
	}
	if simSec[1] > 0 {
		m["sim.ooo.mcyc_per_s"] = simCyc[1] / simSec[1] / 1e6
	}
	for _, l := range []string{"packed", "hooked"} {
		m["inject.campaign_s."+l] = runSec[l]
		if runSec[l] > 0 {
			m["inject.mcyc_per_s."+l] = runCyc[l] / runSec[l] / 1e6
		}
	}
	for k, v := range res.Counts {
		m[k] = float64(v)
	}
	if inj := m["inject.injections"]; inj > 0 {
		m["inject.prune_ratio"] = m["inject.pruned"] / inj
	}
	if n := after.prune[0] - before.prune[0]; n > 0 {
		m["inject.prune_cycles_mean"] = float64(after.prune[1]-before.prune[1]) / float64(n)
	}
	if len(cells) > 0 {
		sort.Float64s(cells)
		m["sweep.cell_p50_s"] = quantile(cells, 0.50)
		m["sweep.cell_p95_s"] = quantile(cells, 0.95)
		total := 0.0
		for _, c := range cells {
			total += c
		}
		m["sweep.busy_ratio"] = total / (float64(runtime.GOMAXPROCS(0)) * wallS)
	}
	for _, id := range tableIDs {
		m["experiments."+id+"_s"] = sum("experiments." + id)
	}
	m["go.alloc_mib"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / (1 << 20)
	m["go.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["trace.duplicated_s"] = dupS
	return m
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(i)
	return xs[i]*(1-f) + xs[i+1]*f
}
