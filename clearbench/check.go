package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/prog"
	"clear/internal/sweep"
)

// nomBudget is the cycle budget of a campaign's nominal run (the value
// inject.Run uses).
const nomBudget = 8_000_000

// fillKey names the golden digests of the tables-warm cache fill.
const fillKey = "tables-fill"

//go:embed golden
var goldenFS embed.FS

// golden maps workload (or fillKey) -> campaign key -> result digest for one
// seed. It is nil when the seed has no golden file; golden/ holds the
// engine's default seed and one held-out seed, 20161.
type golden map[string]map[string]string

func goldenPath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

func loadGolden(seed uint64) (golden, error) {
	data, err := goldenFS.ReadFile(goldenPath("golden", seed))
	if err != nil {
		return nil, nil // no golden digests for this seed: invariants only
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digests for seed %d: %w", seed, err)
	}
	return g, nil
}

// writeGolden merges digests for one workload into the seed's golden file
// under dir.
func writeGolden(dir string, seed uint64, workload string, digests map[string]string) error {
	path := goldenPath(dir, seed)
	g := golden{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
	}
	g[workload] = digests
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest fingerprints every simulated statistic of a campaign result.
func digest(r *inject.Result) string {
	h := sha256.New()
	w := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) } // hash.Hash writes never fail
	w(int64(r.NomCycles))
	w(r.NomRet)
	t := r.Totals
	w([]int64{int64(t.N), int64(t.Vanished), int64(t.OMM), int64(t.UT), int64(t.Hang), int64(t.ED)})
	w(r.PerFF)
	w(r.DetLatSum)
	w(r.DetN)
	return hex.EncodeToString(h.Sum(nil))
}

func campaignKey(kind inject.CoreKind, benchName, tag string) string {
	return kind.String() + "/" + benchName + "/" + tag
}

// checkCampaign verifies a campaign result against its golden digest when
// one exists, and against the invariants that hold for every seed: the
// per-flip-flop tallies sum to the totals, every flip-flop got its
// samples, and the nominal run reproduces the program's expected output
// in the recorded cycle and instruction counts.
func checkCampaign(want map[string]string, key string, kind inject.CoreKind, p *prog.Program, samples int, r *inject.Result) (string, error) {
	d := digest(r)
	if want != nil {
		switch g, ok := want[key]; {
		case !ok:
			return d, fmt.Errorf("%s: no golden digest for this campaign", key)
		case g != d:
			return d, fmt.Errorf("%s: result digest %.12s differs from golden %.12s", key, d, g)
		}
	}
	bits := inject.SpaceBits(kind)
	if len(r.PerFF) != bits {
		return d, fmt.Errorf("%s: %d per-FF entries, want %d", key, len(r.PerFF), bits)
	}
	var sum inject.Counts
	for _, f := range r.PerFF {
		sum.N += int(f.N)
		sum.OMM += int(f.OMM)
		sum.UT += int(f.UT)
		sum.Hang += int(f.Hang)
		sum.ED += int(f.ED)
	}
	sum.Vanished = sum.N - sum.OMM - sum.UT - sum.Hang - sum.ED
	if sum != r.Totals {
		return d, fmt.Errorf("%s: per-FF sum %+v differs from totals %+v", key, sum, r.Totals)
	}
	if r.Totals.N != bits*samples {
		return d, fmt.Errorf("%s: %d injections, want %d strikes x %d samples", key, r.Totals.N, bits, samples)
	}
	if r.DetN > int64(r.Totals.ED) || r.DetLatSum < 0 {
		return d, fmt.Errorf("%s: detection latency over %d detections, %d ED outcomes", key, r.DetN, r.Totals.ED)
	}
	c := inject.NewCore(kind, p)
	res := c.Run(nomBudget)
	if res.Status != prog.StatusHalted || !p.OutputsEqual(res.Output) {
		return d, fmt.Errorf("%s: nominal run does not reproduce the expected output (%v)", key, res.Status)
	}
	if res.Steps != r.NomCycles || c.Retired() != r.NomRet {
		return d, fmt.Errorf("%s: nominal run took %d cycles / %d instructions, result records %d / %d",
			key, res.Steps, c.Retired(), r.NomCycles, r.NomRet)
	}
	return d, nil
}

// checkSweep makes the structural checks on a sweep result; exact values
// are left to the campaign digests so a deliberate evaluation change does
// not read as a failure. It returns the names of rows that fail.
func checkSweep(res *sweep.Result, combos []core.Combo, target float64) map[string]string {
	bad := map[string]string{}
	rows := map[string]sweep.Row{}
	for _, r := range res.Rows {
		rows[r.Name] = r
		for _, v := range []float64{r.SDCImp, r.DUEImp, r.Energy, r.Area} {
			if math.IsNaN(v) || math.IsInf(v, -1) {
				bad[r.Name] = fmt.Sprintf("row %s has a non-finite value %v", r.Name, v)
			}
		}
		if math.IsInf(r.Energy, 0) || math.IsInf(r.Area, 0) {
			bad[r.Name] = fmt.Sprintf("row %s has infinite cost", r.Name)
		}
		if r.Met && r.Failed == 0 && r.SDCImp < target*(1-1e-9) {
			bad[r.Name] = fmt.Sprintf("row %s is marked met at %gx below the %gx target", r.Name, r.SDCImp, target)
		}
	}
	for _, c := range combos {
		if _, ok := rows[c.Name()]; !ok {
			bad[c.Name()] = fmt.Sprintf("combination %s has no row", c.Name())
		}
	}
	for i, p := range res.Frontier {
		_, ok := rows[p.Name]
		switch {
		case !ok:
			bad[p.Name] = fmt.Sprintf("frontier point %s is not a row", p.Name)
			continue
		case math.IsNaN(p.Improvement) || math.IsNaN(p.Energy):
			bad[p.Name] = fmt.Sprintf("frontier point %s is NaN", p.Name)
			continue
		case i > 0 && (p.Improvement <= res.Frontier[i-1].Improvement || p.Energy <= res.Frontier[i-1].Energy):
			bad[p.Name] = fmt.Sprintf("frontier point %s is dominated by %s", p.Name, res.Frontier[i-1].Name)
		}
		for _, o := range res.Rows {
			if o.Failed > 0 || o.Benches == 0 || math.IsNaN(o.SDCImp) {
				continue
			}
			if o.SDCImp >= p.Improvement && o.Energy < p.Energy {
				bad[p.Name] = fmt.Sprintf("frontier point %s is dominated by row %s", p.Name, o.Name)
				break
			}
		}
	}
	return bad
}

// nonFinite matches a non-finite number as Go prints it (NaN, +Inf, -Inf,
// Inf), but not a word that merely starts with those letters.
var nonFinite = regexp.MustCompile(`(^|[^A-Za-z])[+-]?(Inf|NaN)([^A-Za-z]|$)`)

// checkText makes the structural checks on an experiment's output.
func checkText(id, text string) error {
	switch {
	case strings.TrimSpace(text) == "":
		return fmt.Errorf("%s: empty output", id)
	case nonFinite.MatchString(text):
		return fmt.Errorf("%s: output contains a non-finite number", id)
	}
	return nil
}
