package inject

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"clear/internal/archres"
	"clear/internal/bench"
	"clear/internal/prog"
	"clear/internal/sim"
)

// setInterval overrides CheckpointInterval for one test.
func setInterval(t testing.TB, v int) {
	t.Helper()
	old := CheckpointInterval
	CheckpointInterval = v
	t.Cleanup(func() { CheckpointInterval = old })
}

// boundsHook returns a stateful commit hook modeled on an architecture-level
// value checker: it tracks how many instructions retired and flags any
// committed result above a bound the fault-free run never reaches. The
// internal counter makes its verdict depend on the whole event history, so
// a warm-started run gets it right only if the commit-stream guard replays
// the reference prefix into it before handing it the first deviating event.
func boundsHook(bound uint32) func(*prog.Program) sim.CommitHook {
	return func(*prog.Program) sim.CommitHook {
		n := 0
		return func(ev sim.CommitEvent) bool {
			n++
			return n > 1 && ev.Result > bound
		}
	}
}

// TestRunOneFromEquivalence drives a randomized grid of (bit, cycle)
// injection points through both the from-reset and the checkpointed path on
// both cores and requires identical (Outcome, detectCycle) classifications.
func TestRunOneFromEquivalence(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		ref, nomRes, err := BuildReference(kind, p, 16, 100000)
		if err != nil {
			t.Fatalf("%v BuildReference: %v", kind, err)
		}
		if nomRes.Status != prog.StatusHalted {
			t.Fatalf("%v nominal run failed: %v", kind, nomRes.Status)
		}
		nom := nomRes.Steps
		if len(ref.Ckpts) < 2 {
			t.Fatalf("%v: want several checkpoints, got %d (nominal %d cycles)",
				kind, len(ref.Ckpts), nom)
		}
		direct := NewCore(kind, p)
		warm := NewCore(kind, p)
		nBits := SpaceBits(kind)
		for s := 0; s < 300; s++ {
			h := splitmix64(uint64(s) ^ 0xFEED)
			bit := int(h % uint64(nBits))
			cycle := int((h >> 24) % uint64(nom))
			o1, d1 := RunOne(direct, p, bit, cycle, nom, nil)
			o2, d2 := RunOneFrom(warm, p, ref, bit, cycle, nom, nil)
			if o1 != o2 || d1 != d2 {
				t.Fatalf("%v bit=%d cycle=%d: from-reset (%v,%d) vs checkpointed (%v,%d)",
					kind, bit, cycle, o1, d1, o2, d2)
			}
		}
		// hook-carrying runs warm-start under the commit-stream guard and
		// must still agree classification-for-classification
		for s := 0; s < 50; s++ {
			h := splitmix64(uint64(s) ^ 0xB00F)
			bit := int(h % uint64(nBits))
			cycle := int((h >> 24) % uint64(nom))
			hf := boundsHook(1 << 20)
			o1, d1 := RunOne(direct, p, bit, cycle, nom, hf)
			o2, d2 := RunOneFrom(warm, p, ref, bit, cycle, nom, hf)
			if o1 != o2 || d1 != d2 {
				t.Fatalf("%v hooked bit=%d cycle=%d: (%v,%d) vs (%v,%d)",
					kind, bit, cycle, o1, d1, o2, d2)
			}
		}
	}
}

// TestCampaignBitIdentical asserts that a fixed-seed campaign produces a
// byte-identical Result whether checkpointing is disabled (the historical
// from-reset path), run at a non-default interval, or at the default — the
// cache-compatibility guarantee for the committed testdata/cache entries.
func TestCampaignBitIdentical(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 2, Seed: 0xC1EA5}
	encode := func(r *Result) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	setInterval(t, 0)
	r0, err := Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(r0)
	for _, interval := range []int{64, 256, 1024} {
		CheckpointInterval = interval
		r, err := Run(cfg, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, encode(r)) {
			t.Fatalf("interval %d: campaign result differs from from-reset baseline", interval)
		}
	}
}

// TestCampaignBitIdenticalHooked pins the commit-stream guard: campaigns
// carrying the real architecture-level checkers (DFC and the monitor core)
// on both cores must produce DeepEqual results and identical cache bytes
// whether every injection replays from reset (CheckpointInterval 0, the
// checker attached from cycle 0) or warm-starts and prunes under the guard.
// The mbu row sends the scenario path through the guard as well. A prune
// that ignored commit-stream deviation turns detected injections into
// Vanished ones on OoO DFC.
func TestCampaignBitIdenticalHooked(t *testing.T) {
	p := bench.ByName("inner_product").MustProgram()
	cases := []struct {
		kind CoreKind
		tag  string
		hf   func(*prog.Program) sim.CommitHook
	}{
		{InO, "dfc", archres.DFCHookFactory()},
		{InO, "mon", archres.MonitorHookFactory()},
		{OoO, "dfc", archres.DFCHookFactory()},
		{OoO, "mon", archres.MonitorHookFactory()},
		{InO, "mbu/dfc", archres.DFCHookFactory()},
	}
	for _, tc := range cases {
		label := tc.kind.String() + "/" + tc.tag
		cfg := Config{Core: tc.kind, Bench: "inner_product", Tag: tc.tag, SamplesPerFF: 1, Seed: 7}
		setInterval(t, 0)
		cold, err := Run(cfg, p, tc.hf)
		if err != nil {
			t.Fatalf("%s cold: %v", label, err)
		}
		CheckpointInterval = 256
		in := NewInjector()
		warm, err := in.Run(cfg, p, tc.hf)
		if err != nil {
			t.Fatalf("%s warm: %v", label, err)
		}
		requireIdentical(t, label, cold, warm)
		if warm.Totals.ED == 0 {
			t.Fatalf("%s: the checker never fired, so the guard went untested", label)
		}
		if pruned, _ := in.PruneStats(); pruned == 0 {
			t.Fatalf("%s: no injection was pruned under the guard", label)
		}
	}
}

func TestSamplesPerFFRange(t *testing.T) {
	p := tinyProgram(t)
	for _, n := range []int{70000, 1 << 16, -1} {
		cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: n, Seed: 1}
		if _, err := Run(cfg, p, nil); err == nil {
			t.Fatalf("SamplesPerFF=%d: want counter-range error, got nil", n)
		}
	}
}

// TestCampaignCacheRejectsForeign plants a decodable-but-foreign result at a
// campaign's cache path (simulating a key collision or a hand-edited file)
// and asserts the campaign is regenerated rather than silently served
// another configuration's statistics.
func TestCampaignCacheRejectsForeign(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)
	p := tinyProgram(t)

	cfgA := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 1}
	rA, err := Campaign(cfgA, p, nil)
	if err != nil {
		t.Fatal(err)
	}

	plant := func(r *Result, path string) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(r); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// foreign Config at cfgB's path: must be rejected and regenerated
	cfgB := cfgA
	cfgB.Seed = 2
	pathB := filepath.Join(dir, CacheKey(cfgB, p))
	plant(rA, pathB)
	rB, err := Campaign(cfgB, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rB.Config != cfgB {
		t.Fatalf("cache returned foreign campaign: Config %+v, want %+v", rB.Config, cfgB)
	}

	// matching Config but implausible NomCycles: also stale
	forged := *rB
	forged.NomCycles = 0
	plant(&forged, pathB)
	rB2, err := Campaign(cfgB, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rB2.NomCycles == 0 {
		t.Fatal("cache returned result with NomCycles=0")
	}
	if rB2.Totals != rB.Totals {
		t.Fatalf("regenerated campaign differs: %+v vs %+v", rB2.Totals, rB.Totals)
	}
}

// BenchmarkCampaignInO measures the full InO baseline campaign on a real
// benchmark program, from-reset versus checkpointed. The checkpointed
// engine's speedup (≥2x) comes from warm-starting each injection near its
// sampled cycle and from convergence pruning.
func BenchmarkCampaignInO(b *testing.B) {
	p := bench.ByName("gzip").MustProgram()
	cfg := Config{Core: InO, Bench: "gzip", SamplesPerFF: 1, Seed: 0xC1EA5}
	def := CheckpointInterval
	run := func(b *testing.B, interval int) {
		setInterval(b, interval)
		for i := 0; i < b.N; i++ {
			if _, err := Run(cfg, p, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("from-reset", func(b *testing.B) { run(b, 0) })
	b.Run("checkpointed", func(b *testing.B) { run(b, def) })
}

// TestBuildReferenceRejectsBadInterval checks that a non-positive interval
// returns an error instead of panicking with a division by zero.
func TestBuildReferenceRejectsBadInterval(t *testing.T) {
	p := tinyProgram(t)
	for _, interval := range []int{0, -1, -256} {
		if _, _, err := BuildReference(InO, p, interval, 100000); err == nil {
			t.Errorf("BuildReference(interval=%d): want error, got nil", interval)
		}
	}
	if _, _, err := BuildReference(InO, p, 16, 100000); err != nil {
		t.Errorf("BuildReference(interval=16): unexpected error %v", err)
	}
}
