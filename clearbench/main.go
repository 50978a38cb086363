// Command clearbench is the repository benchmark. It times cold injection
// campaigns, a full in-order clearsweep and warm table regeneration by
// calling each layer's public functions from outside, checks every result,
// and prints one report whose last line is a JSON object:
//
//	{"correct": true, "attempted": 63, "failed": 0, "metrics": {...}}
//
// Each repetition runs in a fresh child process with fresh engines and its
// own cache directory, so no repetition sees another's memoized programs,
// translations or cached campaigns. Repetitions run one at a time until
// -seconds have passed; the end-to-end metrics (wall_s, setup_s,
// peak_heap_mib) are their medians. With -trace 1 one extra repetition
// records spans at every layer call, and the run reports the per-layer
// metrics instead, with the tracing overhead and a per-layer time table.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash clearbench/run.sh --workload sweep-ino --seed 1 --seconds 25 --trace 0
//
// All scratch files live under .bench_build in the working directory.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is core.NewEngine's campaign sampling seed, the first golden
// seed.
const defaultSeed = 0xC1EA5

// setupReps is how many set-up-only repetitions a run makes.
const setupReps = 20

// buildDir holds everything the benchmark writes.
const buildDir = ".bench_build"

type metricInfo struct{ name, unit string }

var endToEnd = []metricInfo{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mib", "MiB"},
}

// layerNames are the per-layer metrics of a traced run. Every traced run
// reports all of them; a layer the workload does not exercise reads 0.
var layerNames = []metricInfo{
	{"bench.program_s", "s"},
	{"tcode.translate_s", "s"},
	{"core.new_engine_s", "s"},
	{"core.build_program_s", "s"},
	{"sim.ino.mcyc_per_s", "Mcyc/s"},
	{"sim.ooo.mcyc_per_s", "Mcyc/s"},
	{"inject.reference_s", "s"},
	{"inject.campaign_s.packed", "s"},
	{"inject.campaign_s.hooked", "s"},
	{"inject.mcyc_per_s.packed", "Mcyc/s"},
	{"inject.mcyc_per_s.hooked", "Mcyc/s"},
	{"inject.injections", "count"},
	{"inject.pruned", "count"},
	{"inject.prune_ratio", "ratio"},
	{"inject.prune_cycles_mean", "cycles"},
	{"inject.cache_hit_s", "s"},
	{"inject.cache_hits", "count"},
	{"inject.cache_misses", "count"},
	{"inject.quarantined", "count"},
	{"core.campaign_s", "s"},
	{"core.campaigns_run", "count"},
	{"core.campaigns_joined", "count"},
	{"core.campaigns_cached", "count"},
	{"sweep.cells", "count"},
	{"sweep.cell_p50_s", "s"},
	{"sweep.cell_p95_s", "s"},
	{"sweep.busy_ratio", "ratio"},
	{"experiments.ablation1_s", "s"},
	{"experiments.table17_s", "s"},
	{"experiments.table20_s", "s"},
	{"experiments.table25_s", "s"},
	{"experiments.table26_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"go.alloc_mib", "MiB"},
	{"go.gc_cycles", "count"},
	{"trace.duplicated_s", "s"},
	{"trace.overhead_s", "s"},
}

func main() {
	name := flag.String("workload", "", "workload to run, a comma-separated list, or all")
	seed := flag.Uint64("seed", defaultSeed, "campaign sampling seed (Engine.Seed)")
	seconds := flag.Int("seconds", 10, "measure for this many seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced repetition")
	writeGoldenDir := flag.String("write-golden", "", "record this seed's result digests in this directory")
	// Internal: the parent process starts itself with these.
	repDir := flag.String("rep", "", "run one repetition in this directory")
	spansPath := flag.String("spans", "", "trace the repetition and write its spans here")
	template := flag.String("template", "", "filled cache template for tables-warm")
	fillDir := flag.String("fill", "", "fill the tables-warm cache template into this directory")
	noGolden := flag.Bool("no-golden", false, "check invariants only, not golden digests")
	setupOnly := flag.Bool("setup-only", false, "stop the repetition after its set-up")
	flag.Parse()

	if *fillDir != "" || *repDir != "" {
		if err := child(*name, *seed, *repDir, *fillDir, *spansPath, *template, !*noGolden, *setupOnly); err != nil {
			fmt.Fprintln(os.Stderr, "clearbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "clearbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = strings.Split(*name, ",")
	}
	for _, n := range names {
		if lookupWorkload(n) == nil {
			fmt.Fprintf(os.Stderr, "clearbench: unknown workload %q (have: %s)\n", n, workloadList())
			os.Exit(2)
		}
	}
	if err := parent(names, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *writeGoldenDir); err != nil {
		fmt.Fprintln(os.Stderr, "clearbench:", err)
		os.Exit(1)
	}
}

func workloadList() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// child runs in a process of its own: one repetition, or the tables-warm
// cache fill.
func child(name string, seed uint64, repDir, fillDir, spansPath, template string, useGolden, setupOnly bool) error {
	var g golden
	if useGolden {
		var err error
		if g, err = loadGolden(seed); err != nil {
			return err
		}
	}
	if fillDir != "" {
		t0 := time.Now()
		digests, failures, err := fill(fillDir, seed, g)
		if err != nil {
			return err
		}
		return writeJSON(os.Stdout, fillOut{FillS: time.Since(t0).Seconds(), Digests: digests, Failures: failures})
	}
	w := lookupWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	return runRep(name, w.make(template), seed, g, repDir, spansPath, setupOnly, os.Stdout)
}

type fillOut struct {
	FillS    float64           `json:"fill_s"`
	Digests  map[string]string `json:"digests"`
	Failures []string          `json:"failures,omitempty"`
}

func writeJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runChild starts this program with args, waits for it, and decodes the
// last line of its standard output into v. Canceling ctx kills the child.
func runChild(ctx context.Context, v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return json.Unmarshal(last, v)
}

// report is the outcome of measuring one workload.
type report struct {
	name      string
	reps      []repOut  // untraced
	setups    []float64 // set-up seconds of set-up-only and untraced repetitions
	traced    *repOut
	spans     []span
	fill      *fillOut
	attempted int
	failed    int
	problems  []string // failures and nondeterminism, one line each
}

func (r *report) add(o repOut) {
	r.attempted += o.Attempted
	r.failed += o.Failed
	r.problems = append(r.problems, o.Failures...)
}

func parent(names []string, seed uint64, seconds time.Duration, traced bool, goldenDir string) error {
	work := filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// An interrupted run stops its child before removing its files.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reports []*report
	for _, n := range names {
		r, err := measure(ctx, n, seed, seconds, traced, goldenDir, work)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		r.print(os.Stdout, seed)
		reports = append(reports, r)
	}
	return writeJSON(os.Stdout, summary(reports, traced))
}

func measure(ctx context.Context, name string, seed uint64, seconds time.Duration, traced bool, goldenDir, work string) (*report, error) {
	r := &report{name: name}
	var extra []string
	if goldenDir != "" {
		extra = append(extra, "-no-golden")
	}
	if name == "tables-warm" {
		dir := filepath.Join(work, "template")
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		r.fill = &fillOut{}
		args := append([]string{"-fill", dir, "-seed", fmt.Sprint(seed)}, extra...)
		if err := runChild(ctx, r.fill, args...); err != nil {
			return nil, fmt.Errorf("fill cache template: %w", err)
		}
		r.problems = append(r.problems, r.fill.Failures...)
		extra = append(extra, "-template", dir)
	}

	rep := func(i int, more ...string) (repOut, error) {
		dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("rep-%d", i)))
		if err != nil {
			return repOut{}, err
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			return repOut{}, err
		}
		defer os.RemoveAll(dir)
		args := append([]string{"-workload", name, "-seed", fmt.Sprint(seed), "-rep", dir}, extra...)
		var o repOut
		err = runChild(ctx, &o, append(args, more...)...)
		return o, err
	}

	// Set-up is short, so besides the set-up of every measured repetition
	// it is repeated on its own, each time in a fresh process. These
	// set-up-only processes are spread between the measured repetitions,
	// so drift in host speed over the run reaches both alike; their time
	// does not count against the measuring window.
	var spent time.Duration // in measured repetitions
	nSetup := 0
	setups := func(upTo int) error {
		for ; nSetup < upTo; nSetup++ {
			o, err := rep(-1-nSetup, "-setup-only")
			if err != nil {
				return err
			}
			r.setups = append(r.setups, o.SetupS)
		}
		return nil
	}
	measured := func(i int, more ...string) (repOut, error) {
		t := time.Now()
		o, err := rep(i, more...)
		spent += time.Since(t)
		return o, err
	}
	if traced {
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		o, err := measured(0, "-spans", path)
		if err != nil {
			return nil, err
		}
		r.traced = &o
		r.add(o)
		if r.spans, err = readSpans(path); err != nil {
			return nil, err
		}
	}
	for i := 1; len(r.reps) == 0 || spent < seconds; i++ {
		o, err := measured(i)
		if err != nil {
			return nil, err
		}
		r.reps = append(r.reps, o)
		r.setups = append(r.setups, o.SetupS)
		r.add(o)
		due := int(float64(setupReps) * spent.Seconds() / seconds.Seconds())
		if err := setups(min(due, setupReps)); err != nil {
			return nil, err
		}
	}
	if err := setups(setupReps); err != nil {
		return nil, err
	}
	r.crossCheck()

	if goldenDir != "" {
		if r.failed > 0 || len(r.problems) > 0 {
			return nil, fmt.Errorf("not writing golden digests: %d failed operations: %v", r.failed, r.problems)
		}
		if r.fill != nil {
			if err := writeGolden(goldenDir, seed, fillKey, r.fill.Digests); err != nil {
				return nil, err
			}
		}
		if err := writeGolden(goldenDir, seed, name, r.reps[0].Digests); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// crossCheck requires every repetition of one seed to produce the same
// result digests and the same exact counts.
func (r *report) crossCheck() {
	all := append([]repOut{}, r.reps...)
	if r.traced != nil {
		all = append(all, *r.traced)
	}
	first := all[0]
	for i, o := range all[1:] {
		for k, d := range first.Digests {
			if o.Digests[k] != d {
				r.problems = append(r.problems, fmt.Sprintf("nondeterminism: %s differs between repetitions 1 and %d", k, i+2))
			}
		}
		for k, v := range first.Counts {
			if o.Counts[k] != v {
				r.problems = append(r.problems, fmt.Sprintf("nondeterminism: %s is %d in repetition 1 and %d in repetition %d", k, v, o.Counts[k], i+2))
			}
		}
	}
}

func median(xs []float64) float64 {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd returns the medians of the untraced repetitions, with min and max.
func (r *report) endToEnd() map[string][3]float64 {
	var wall, heap []float64
	for _, o := range r.reps {
		wall = append(wall, o.WallS)
		heap = append(heap, o.PeakHeapMiB)
	}
	out := map[string][3]float64{}
	for name, xs := range map[string][]float64{"wall_s": wall, "setup_s": r.setups, "peak_heap_mib": heap} {
		s := append([]float64{}, xs...)
		sort.Float64s(s)
		out[name] = [3]float64{median(xs), s[0], s[len(s)-1]}
	}
	return out
}

// layers returns the traced repetition's per-layer metrics with the
// tracing overhead: traced wall_s minus the untraced median. The
// scheduling counts come from the first untraced repetition, since the
// traced one calls into the engine's memo to time its campaigns.
func (r *report) layers() map[string]float64 {
	m := map[string]float64{}
	for k, v := range r.traced.Layers {
		m[k] = v
	}
	for k, v := range r.reps[0].Sched {
		m[k] = float64(v)
	}
	m["trace.overhead_s"] = r.traced.WallS - r.endToEnd()["wall_s"][0]
	return m
}

func (r *report) print(w io.Writer, seed uint64) {
	opsPerRep := 0
	if len(r.reps) > 0 {
		opsPerRep = r.reps[0].Attempted
	}
	fmt.Fprintf(w, "workload %s, seed %d: %d repetitions", r.name, seed, len(r.reps))
	if r.traced != nil {
		fmt.Fprint(w, " + 1 traced")
	}
	fmt.Fprintf(w, ", %d operations each\n", opsPerRep)
	e2e := r.endToEnd()
	for _, m := range endToEnd {
		v := e2e[m.name]
		fmt.Fprintf(w, "  %-24s %12.4f %-6s (median; min %.4f, max %.4f)\n", m.name, v[0], m.unit, v[1], v[2])
	}
	fmt.Fprintf(w, "  wall_s by repetition    ")
	for _, o := range r.reps {
		fmt.Fprintf(w, " %.3f", o.WallS)
	}
	fmt.Fprintln(w)
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  failed operations        %d of %d (%.2f%%)\n", r.failed, r.attempted, 100*share)
	if r.fill != nil {
		fmt.Fprintf(w, "  tables-warm fill         %.4f s, %d campaigns (once, untimed)\n", r.fill.FillS, len(r.fill.Digests))
	}
	fmt.Fprintf(w, "  exact counts             %s\n", kv(r.reps[0].Counts))
	fmt.Fprintf(w, "  scheduling counts        %s\n", kv(r.reps[0].Sched))
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	if r.traced == nil {
		return
	}
	fmt.Fprintf(w, "  traced repetition: wall %.4f s\n", r.traced.WallS)
	layers := r.layers()
	for _, m := range layerNames {
		fmt.Fprintf(w, "  %-28s %14.6f %s\n", m.name, layers[m.name], m.unit)
	}
	printSummary(w, summarize(r.spans, e2e["wall_s"][0]))
}

func kv(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary is the final JSON line. With several workloads each metric name
// is prefixed by its workload.
func summary(reports []*report, traced bool) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range reports {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.failed > 0 || len(r.problems) > 0 {
			res.Correct = false
		}
		prefix := ""
		if len(reports) > 1 {
			prefix = r.name + "/"
		}
		if traced {
			layers := r.layers()
			for _, m := range layerNames {
				res.Metrics[prefix+m.name] = metricValue{layers[m.name], m.unit}
			}
			continue
		}
		e2e := r.endToEnd()
		for _, m := range endToEnd {
			res.Metrics[prefix+m.name] = metricValue{e2e[m.name][0], m.unit}
		}
	}
	return res
}
