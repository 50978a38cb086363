package inject

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clear/internal/prog"
	"clear/internal/sim"
)

func TestModelRegistry(t *testing.T) {
	want := []string{"mbu", "set", "ssb", "uncore"}
	if got := ModelNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ModelNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		m := LookupModel(name)
		if m == nil {
			t.Fatalf("LookupModel(%q) = nil", name)
		}
		if m.Name() != name {
			t.Fatalf("LookupModel(%q).Name() = %q", name, m.Name())
		}
	}
	if LookupModel("nope") != nil {
		t.Fatal("LookupModel accepted an unregistered name")
	}
}

func TestRegisterModelValidation(t *testing.T) {
	cases := []string{"", "has/slash", "UPPER", "ssb"}
	for _, name := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterModel(%q) did not panic", name)
				}
			}()
			RegisterModel(badModel{name})
		}()
	}
}

type badModel struct{ name string }

func (m badModel) Name() string                              { return m.name }
func (badModel) Bits(*ModelEnv) []int                        { return nil }
func (badModel) Expand(*ModelEnv, int, int, uint64) Scenario { return nil }

func TestModelTagRoundTrip(t *testing.T) {
	cases := []struct {
		model, tag  string
		wantTag     string
		backModel   string
		backBaseTag string
	}{
		{"ssb", "base", "base", "ssb", "base"},
		{"", "base", "base", "ssb", "base"},
		{"mbu", "base", "mbu/base", "mbu", "base"},
		{"set", "eddi-srb", "set/eddi-srb", "set", "eddi-srb"},
		{"uncore", "", "uncore/", "uncore", ""},
	}
	for _, tc := range cases {
		if got := ModelTag(tc.model, tc.tag); got != tc.wantTag {
			t.Errorf("ModelTag(%q, %q) = %q, want %q", tc.model, tc.tag, got, tc.wantTag)
		}
		m, base := SplitModelTag(tc.wantTag)
		if m != tc.backModel || base != tc.backBaseTag {
			t.Errorf("SplitModelTag(%q) = (%q, %q), want (%q, %q)",
				tc.wantTag, m, base, tc.backModel, tc.backBaseTag)
		}
	}
	// A tag whose slash prefix is not a registered model stays ssb whole.
	if m, base := SplitModelTag("weird/tag"); m != "ssb" || base != "weird/tag" {
		t.Errorf("SplitModelTag(weird/tag) = (%q, %q)", m, base)
	}
	// An explicit "ssb/" prefix is not a model prefix (ssb is unprefixed).
	if m, base := SplitModelTag("ssb/base"); m != "ssb" || base != "ssb/base" {
		t.Errorf("SplitModelTag(ssb/base) = (%q, %q)", m, base)
	}
}

func TestMBUClusterExpansion(t *testing.T) {
	for _, kind := range []CoreKind{InO, OoO} {
		env := EnvFor(kind)
		model := LookupModel("mbu")
		nBits := SpaceBits(kind)
		for _, bit := range []int{0, 1, nBits / 2, nBits - 1} {
			cluster := env.Cluster(bit)
			sc := model.Expand(env, bit, 100, 12345)
			if len(sc) != len(cluster) {
				t.Fatalf("%v bit %d: scenario %d flips, cluster %d bits", kind, bit, len(sc), len(cluster))
			}
			seen := false
			for i, f := range sc {
				if f.Bit == bit {
					seen = true
				}
				if f.Delay != 0 {
					t.Fatalf("%v bit %d: mbu flip has delay %d", kind, bit, f.Delay)
				}
				if i > 0 && sc[i-1].Bit >= f.Bit {
					t.Fatalf("%v bit %d: cluster not ascending: %v", kind, bit, sc)
				}
				if d := env.Pl.WithinRadius(bit, 1.0); f.Bit != bit && !containsInt(d, f.Bit) {
					t.Fatalf("%v bit %d: flip %d outside the SEMU radius", kind, bit, f.Bit)
				}
			}
			if !seen {
				t.Fatalf("%v bit %d: struck bit missing from its own cluster %v", kind, bit, sc)
			}
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestUncoreBitsPopulation(t *testing.T) {
	wantUnits := map[CoreKind]map[string]bool{
		InO: {"memory": true, "icache": true, "dcache": true},
		OoO: {"fetchbuf": true, "stq": true, "l1dcache": true},
	}
	model := LookupModel("uncore")
	for _, kind := range []CoreKind{InO, OoO} {
		env := EnvFor(kind)
		bits := model.Bits(env)
		if len(bits) == 0 {
			t.Fatalf("%v: empty uncore strike population", kind)
		}
		if len(bits) >= SpaceBits(kind) {
			t.Fatalf("%v: uncore population is the whole space", kind)
		}
		for i, b := range bits {
			if u := env.Pl.Space.UnitOf(b); !wantUnits[kind][u] {
				t.Fatalf("%v: uncore bit %d is in unit %q", kind, b, u)
			}
			if i > 0 && bits[i-1] >= b {
				t.Fatalf("%v: uncore bits not ascending", kind)
			}
		}
		sc := model.Expand(env, bits[0], 5, 99)
		if len(sc) != 1 || sc[0] != (Flip{Bit: bits[0]}) {
			t.Fatalf("%v: uncore expansion %v, want single undelayed flip", kind, sc)
		}
	}
}

func TestSETSlackGate(t *testing.T) {
	env := EnvFor(InO)
	model := LookupModel("set")
	gated, passed := 0, 0
	for bit := 0; bit < SpaceBits(InO); bit++ {
		for h := uint64(0); h < 4; h++ {
			draw := h << 32 // pulse = 1 + (h>>32)%SETMaxPulse
			pulse := 1 + int(h%SETMaxPulse)
			sc := model.Expand(env, bit, 7, draw)
			if env.Pl.Slack[bit] < pulse {
				if len(sc) != 1 || sc[0].Bit != bit {
					t.Fatalf("bit %d slack %d pulse %d: want latch, got %v",
						bit, env.Pl.Slack[bit], pulse, sc)
				}
				passed++
			} else {
				if len(sc) != 0 {
					t.Fatalf("bit %d slack %d pulse %d: transient should vanish, got %v",
						bit, env.Pl.Slack[bit], pulse, sc)
				}
				gated++
			}
		}
	}
	if gated == 0 || passed == 0 {
		t.Fatalf("slack gate is degenerate: %d gated, %d passed", gated, passed)
	}
}

// TestScenarioWarmColdEquivalence pins the core scenario contract: the
// warm-started, convergence-pruned path must classify every scenario —
// including time-offset flips — identically to the from-reset path.
func TestScenarioWarmColdEquivalence(t *testing.T) {
	p := tinyProgram(t)
	ref, nomRes, err := BuildReference(InO, p, 16, 100000)
	if err != nil {
		t.Fatal(err)
	}
	nom := nomRes.Steps
	cold := NewCore(InO, p)
	warm := NewCore(InO, p)
	scenarios := []Scenario{
		{{Bit: 3}},
		{{Bit: 3}, {Bit: 9}},
		{{Bit: 3}, {Bit: 9, Delay: 2}},
		{{Bit: 1, Delay: 5}, {Bit: 2, Delay: 1}, {Bit: 3}},
		{{Bit: 7}, {Bit: 7}}, // double flip of one bit: a no-op
	}
	for _, sc := range scenarios {
		for _, cycle := range []int{1, nom / 3, nom - 2} {
			scCold := append(Scenario(nil), sc...)
			scWarm := append(Scenario(nil), sc...)
			o1, d1 := runScenarioCold(cold, p, scCold, cycle, nom, nil)
			o2, d2 := RunScenarioFrom(warm, p, ref, scWarm, cycle, nom, nil)
			if o1 != o2 || d1 != d2 {
				t.Fatalf("scenario %v cycle %d: cold (%v,%d) vs warm (%v,%d)",
					sc, cycle, o1, d1, o2, d2)
			}
		}
	}
}

func TestEmptyScenarioVanishesWithoutSimulation(t *testing.T) {
	p := tinyProgram(t)
	in := NewInjector()
	c := NewCore(InO, p)
	out, det := in.RunScenarioFrom(c, p, nil, nil, 10, 100, nil)
	if out != Vanished || det != -1 {
		t.Fatalf("empty scenario = (%v, %d), want (Vanished, -1)", out, det)
	}
	if got := in.injTotal.Value(); got != 1 {
		t.Fatalf("empty scenario tallied %d injections, want 1", got)
	}
}

// TestModelCampaignDeterminism runs one campaign per non-ssb model twice
// and requires identical results — the FaultModel purity contract the
// cache depends on.
func TestModelCampaignDeterminism(t *testing.T) {
	p := tinyProgram(t)
	for _, model := range []string{"mbu", "uncore", "set"} {
		cfg := Config{Core: InO, Bench: "tiny", Tag: ModelTag(model, "base"), SamplesPerFF: 1, Seed: 42}
		r1, err := Run(cfg, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(cfg, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%s campaign not deterministic", model)
		}
		if r1.Totals.N == 0 {
			t.Fatalf("%s campaign ran no injections", model)
		}
		if len(r1.PerFF) != SpaceBits(InO) {
			t.Fatalf("%s campaign PerFF has %d entries, want the full space", model, len(r1.PerFF))
		}
	}
}

// TestUncoreCampaignOnlyStrikesUncore checks the population restriction
// reaches the campaign loop: every sampled injection lands on an uncore
// bit, core-datapath flip-flops get none.
func TestUncoreCampaignOnlyStrikesUncore(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", Tag: "uncore/base", SamplesPerFF: 1, Seed: 7}
	r, err := Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := EnvFor(InO)
	uncore := map[int]bool{}
	for _, b := range env.UncoreBits() {
		uncore[b] = true
	}
	for bit, st := range r.PerFF {
		if st.N > 0 && !uncore[bit] {
			t.Fatalf("core bit %d (%s) was struck under the uncore model",
				bit, unitOfBit(env, bit))
		}
		if st.N == 0 && uncore[bit] {
			t.Fatalf("uncore bit %d got no samples", bit)
		}
	}
	if int(r.Totals.N) != len(env.UncoreBits())*cfg.SamplesPerFF {
		t.Fatalf("uncore campaign N = %d, want %d", r.Totals.N, len(env.UncoreBits())*cfg.SamplesPerFF)
	}
}

func unitOfBit(env *ModelEnv, bit int) string { return env.Pl.Space.UnitOf(bit) }

// TestCacheModelTrailerRoundTrip covers the CLRM trailer: a non-ssb result
// round-trips with its model, and renaming it into another model's slot is
// rejected by the Campaign validity check (model mismatch).
func TestCacheModelTrailerRoundTrip(t *testing.T) {
	r := &Result{
		Config:    Config{Core: InO, Bench: "x", Tag: "mbu/base", SamplesPerFF: 1, Seed: 5},
		NomCycles: 128,
		NomRet:    64,
		PerFF:     []FFStats{{N: 1, OMM: 1}},
		Totals:    Counts{N: 1, OMM: 1},
	}
	data, err := encodeCache(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[len(data)-8:len(data)-4]) != "CLRM" {
		t.Fatalf("non-ssb entry lacks the CLRM trailer: % x", data[len(data)-12:])
	}
	got, model, err := decodeCache(data)
	if err != nil {
		t.Fatal(err)
	}
	if model != "mbu" {
		t.Fatalf("decoded model %q, want mbu", model)
	}
	if got.Totals != r.Totals || got.Config != r.Config {
		t.Fatalf("CLRM round-trip mismatch: %+v", got)
	}
	// Bit-rot in the CRC-covered region — the payload, the model name
	// bytes, the length byte — must be caught. (Corrupting the magic
	// itself demotes the file to a legacy trailerless decode by design.)
	for _, i := range []int{0, len(data) - 9, len(data) - 10} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, _, err := decodeCache(bad); err == nil {
			t.Fatalf("decodeCache accepted a corrupted CLRM entry (byte %d)", i)
		}
	}
}

// TestCacheSSBFormatPinned freezes the legacy trailer: an ssb entry must
// end in CLRC with the CRC over the gob payload alone, so cache files
// written before fault models existed stay byte-compatible.
func TestCacheSSBFormatPinned(t *testing.T) {
	r := &Result{
		Config:    Config{Core: InO, Bench: "x", Tag: "base", SamplesPerFF: 1, Seed: 5},
		NomCycles: 128,
		NomRet:    64,
		PerFF:     []FFStats{{N: 1}},
		Totals:    Counts{N: 1, Vanished: 1},
	}
	data, err := encodeCache(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[len(data)-8:len(data)-4]) != "CLRC" {
		t.Fatalf("ssb entry lost its legacy CLRC trailer: % x", data[len(data)-8:])
	}
	if _, model, err := decodeCache(data); err != nil || model != "ssb" {
		t.Fatalf("ssb entry decoded as (%q, %v)", model, err)
	}
}

// TestPairCampaignDetLatency exercises the detection-latency accounting on
// the multi-flip path: with an always-detecting hook every pair injection
// is ED and must contribute to DetLatSum/DetN (the counters RunPair used
// to drop).
func TestPairCampaignDetLatency(t *testing.T) {
	p := tinyProgram(t)
	// A bounds checker: silent in the nominal run (tiny's values are
	// small), detecting whenever a corrupted register value retires.
	hf := func(*prog.Program) sim.CommitHook {
		n := 0
		return func(ev sim.CommitEvent) bool {
			n++
			return n > 1 && ev.Result > 1<<16
		}
	}
	nBits := SpaceBits(InO)
	var pairs [][2]int
	for i := 0; i+1 < nBits; i += 7 {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	cfg := PairConfig{Core: InO, Bench: "tiny", Tag: "hooked", SamplesPerPair: 2, Seed: 3}
	res, err := RunPairs(cfg, p, pairs, hf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.ED == 0 {
		t.Fatal("always-detecting hook produced no ED outcomes")
	}
	if res.DetN != int64(res.Totals.ED) {
		t.Fatalf("DetN = %d, want one entry per ED outcome (%d)", res.DetN, res.Totals.ED)
	}
	if res.DetLatSum < 0 {
		t.Fatalf("negative DetLatSum %d", res.DetLatSum)
	}
}

// FuzzScenarioDeterminism is the FaultModel purity fuzz target: for any
// (model, bit, cycle, hash) draw, Expand must return the same scenario
// twice, every flip must stay inside the flip-flop space with a
// non-negative delay, and ssb/mbu scenarios must contain the struck bit.
func FuzzScenarioDeterminism(f *testing.F) {
	f.Add(uint8(0), uint16(3), uint16(100), uint64(12345))
	f.Add(uint8(1), uint16(0), uint16(0), uint64(0))
	f.Add(uint8(2), uint16(900), uint16(7), uint64(1<<40))
	f.Add(uint8(3), uint16(65535), uint16(65535), ^uint64(0))
	names := ModelNames()
	env := EnvFor(InO)
	nBits := SpaceBits(InO)
	f.Fuzz(func(t *testing.T, mi uint8, bitRaw, cycleRaw uint16, h uint64) {
		model := LookupModel(names[int(mi)%len(names)])
		bit := int(bitRaw) % nBits
		if bits := model.Bits(env); bits != nil {
			bit = bits[int(bitRaw)%len(bits)]
		}
		cycle := int(cycleRaw)
		sc1 := model.Expand(env, bit, cycle, h)
		sc2 := model.Expand(env, bit, cycle, h)
		if !reflect.DeepEqual(sc1, sc2) {
			t.Fatalf("%s expansion not deterministic: %v vs %v", model.Name(), sc1, sc2)
		}
		struck := false
		for _, fl := range sc1 {
			if fl.Bit < 0 || fl.Bit >= nBits {
				t.Fatalf("%s flip outside the space: %v", model.Name(), fl)
			}
			if fl.Delay < 0 {
				t.Fatalf("%s flip with negative delay: %v", model.Name(), fl)
			}
			if fl.Bit == bit {
				struck = true
			}
		}
		if n := model.Name(); (n == "ssb" || n == "mbu" || n == "uncore") && !struck {
			t.Fatalf("%s scenario misses the struck bit %d: %v", n, bit, sc1)
		}
	})
}

// TestCampaignRejectsCrossModelCache plants an mbu result in the slot an
// ssb campaign would read (the hand-rename scenario the CLRM trailer
// exists for) and checks the campaign recomputes instead of trusting it.
func TestCampaignRejectsCrossModelCache(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)
	p := tinyProgram(t)

	mbuCfg := Config{Core: InO, Bench: "tiny", Tag: "mbu/base", SamplesPerFF: 1, Seed: 9}
	ssbCfg := Config{Core: InO, Bench: "tiny", Tag: "base", SamplesPerFF: 1, Seed: 9}
	mbuRes, err := Campaign(mbuCfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the attack: the mbu result re-labeled as the ssb campaign and
	// re-encoded into the ssb cache slot. The Config comparison alone
	// cannot catch this — only the model trailer disagrees.
	forged := *mbuRes
	forged.Config = ssbCfg
	data, err := encodeCacheAs(&forged, "mbu")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CacheKey(ssbCfg, p))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	in := NewInjector()
	got, err := in.Campaign(ssbCfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.cacheHits.Value() != 0 {
		t.Fatal("forged cross-model cache entry was served as a hit")
	}
	if reflect.DeepEqual(got.PerFF, mbuRes.PerFF) {
		t.Fatal("ssb campaign returned the planted mbu numbers")
	}
}

// encodeCacheAs gob-encodes r exactly as stored and hand-appends a CLRM
// trailer claiming the given model, regardless of what r's Tag implies —
// the test-only forgery encodeCache would refuse to produce.
func encodeCacheAs(r *Result, model string) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, err
	}
	buf.WriteString(model)
	buf.WriteByte(byte(len(model)))
	buf.Write(cacheModelMagic[:])
	sum := crc32.Checksum(buf.Bytes(), castagnoli)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	buf.Write(tr[:])
	return buf.Bytes(), nil
}
