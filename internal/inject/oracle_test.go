package inject

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clear/internal/bench"
	"clear/internal/isa"
	"clear/internal/ooo"
	"clear/internal/prog"
	"clear/internal/sim"
)

// oracleFixture holds the committed pipeline oracle: one line per scenario,
// "<name> <final cycle> <chained digest>...". Each digest is the first 8
// bytes (hex) of a running SHA-256 over every state sample taken so far.
const oracleFixture = "testdata/pipeline_oracle.txt"

const (
	oracleSampleEvery = 16  // cycles between state samples
	oracleRecordEvery = 256 // cycles between recorded chain values
)

// oracleEvent is an action applied at the clock boundary before the core
// simulates cycle at+1.
type oracleEvent struct {
	at  int
	act func(t testing.TB, c sim.Core)
}

// oracleScenario is one deterministic run: a core bound to a program, a
// cycle budget, and the flips/observations applied along the way.
type oracleScenario struct {
	name   string
	kind   CoreKind
	p      *prog.Program
	budget int
	events []oracleEvent // ascending at
}

// digester folds state samples into a chained SHA-256 and records the chain
// value every oracleRecordEvery cycles and at the end of the run.
type digester struct {
	h      hash.Hash
	buf    []byte
	words  []uint64
	flight []sim.InFlightInst
	chain  []string
}

// sample appends one state sample to the chain. The encoding is explicit
// and fixed-width little-endian: counters, done/status, the packed
// flip-flop words, register file, memory, output, the core's non-flip-flop
// state (Extra), and the in-flight instruction list.
func (d *digester) sample(c sim.Core) {
	ck := c.Snapshot()
	le := binary.LittleEndian
	b := d.buf[:0]
	b = le.AppendUint64(b, uint64(ck.Cycles))
	b = le.AppendUint64(b, uint64(ck.Retired))
	done := byte(0)
	if ck.Done {
		done = 1
	}
	b = append(b, done, byte(ck.Status))
	d.words = ck.FF.AppendWords(d.words[:0])
	b = le.AppendUint32(b, uint32(len(d.words)))
	for _, w := range d.words {
		b = le.AppendUint64(b, w)
	}
	for _, r := range ck.Regs {
		b = le.AppendUint32(b, r)
	}
	for _, s := range [][]uint32{ck.Mem, ck.Out} {
		b = le.AppendUint32(b, uint32(len(s)))
		for _, w := range s {
			b = le.AppendUint32(b, w)
		}
	}
	d.flight = c.InFlight(d.flight[:0])
	b = le.AppendUint32(b, uint32(len(d.flight)))
	for _, f := range d.flight {
		b = append(b, byte(len(f.Unit)))
		b = append(b, f.Unit...)
		b = le.AppendUint32(b, uint32(int32(f.Slot)))
		b = le.AppendUint32(b, f.PC)
	}
	d.buf = b
	d.h.Write(b)
	// Extra is a fixed-size struct of integer, bool and array fields on both
	// cores; binary.Write lays it out field by field.
	if err := binary.Write(d.h, le, ck.Extra); err != nil {
		panic(fmt.Sprintf("oracle: encoding %T: %v", ck.Extra, err))
	}
}

func (d *digester) record() {
	d.chain = append(d.chain, fmt.Sprintf("%x", d.h.Sum(nil)[:8]))
}

// run simulates the scenario and returns its fixture line.
func (s oracleScenario) run(t testing.TB) string {
	c := NewCore(s.kind, s.p)
	d := &digester{h: sha256.New()}
	ev := s.events
	for !c.Done() && c.Cycles() < s.budget {
		for len(ev) > 0 && ev[0].at == c.Cycles() {
			ev[0].act(t, c)
			d.sample(c)
			ev = ev[1:]
		}
		c.Step()
		if n := c.Cycles(); n%oracleSampleEvery == 0 {
			d.sample(c)
			if n%oracleRecordEvery == 0 {
				d.record()
			}
		}
	}
	d.sample(c)
	d.record()
	return fmt.Sprintf("%s %d %s", s.name, c.Cycles(), strings.Join(d.chain, " "))
}

func flipAt(at, bit int) oracleEvent {
	return oracleEvent{at, func(_ testing.TB, c sim.Core) { c.State().FlipBit(bit) }}
}

// instLatchFlip flips a bit of an instruction word the pipeline will decode
// again: the in-order execute latch, or the out-of-order ROB head entry
// (decoded at commit). The corrupted word misses the per-PC translation and
// takes the decode-cache fallback.
func instLatchFlip(kind CoreKind, at, bit int) oracleEvent {
	return oracleEvent{at, func(t testing.TB, c sim.Core) {
		sp := c.SpaceOf()
		name := "e.ctrl.inst"
		if kind == OoO {
			head, ok := sp.Lookup("rob.head.reg")
			if !ok {
				t.Fatal("rob.head.reg missing from the OoO space")
			}
			name = fmt.Sprintf("rob.inst%d", head.Get(c.State())%ooo.RobSize)
		}
		f, ok := sp.Lookup(name)
		if !ok {
			t.Fatalf("%v: field %q missing from space", kind, name)
		}
		c.State().FlipBit(f.Offset() + bit%f.Width())
	}}
}

// observeAt is one stop of an observation walk: Snapshot, identity Restore
// and Matches, and on the in-order core optionally a flush recovery.
func observeAt(at int, flush bool) oracleEvent {
	return oracleEvent{at, func(t testing.TB, c sim.Core) {
		ck := c.Snapshot()
		c.Restore(ck)
		if !c.Matches(ck) {
			t.Fatalf("identity Restore does not Match its snapshot at cycle %d", at)
		}
		c.InFlight(nil)
		if flush {
			flushRecover(c)
		}
	}}
}

func nameSeed(s string) int64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return int64(h.Sum64())
}

// oracleScenarios enumerates the oracle's coverage: for every kernel on
// each core, a nominal run, a random flip, a flip in a mirrored structure,
// an instruction-latch flip and an observation walk; then 64 seeded 32-word
// byte-soup images with one flip each on both cores.
func oracleScenarios(t testing.TB) []oracleScenario {
	var out []oracleScenario
	for _, kind := range []CoreKind{InO, OoO} {
		benches := bench.All()
		if kind == OoO {
			benches = bench.ForOoO()
		}
		bits := SpaceBits(kind)
		mirror := mirrorFieldBits(t, kind)
		for _, b := range benches {
			p, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			nom := NewCore(kind, p).Run(4_000_000).Steps
			budget := HangFactor * nom
			base := fmt.Sprintf("%v/%s/", kind, b.Name)
			rng := rand.New(rand.NewSource(nameSeed(base)))
			var walk []oracleEvent
			for at := 97; at < nom; at += 97 {
				walk = append(walk, observeAt(at, kind == InO && at/97 == 5))
			}
			out = append(out,
				oracleScenario{base + "nominal", kind, p, budget, nil},
				oracleScenario{base + "flip", kind, p, budget,
					[]oracleEvent{flipAt(rng.Intn(nom), rng.Intn(bits))}},
				oracleScenario{base + "mirror", kind, p, budget,
					[]oracleEvent{flipAt(rng.Intn(nom), mirror[rng.Intn(len(mirror))])}},
				oracleScenario{base + "inst", kind, p, budget,
					[]oracleEvent{instLatchFlip(kind, rng.Intn(nom), rng.Intn(32))}},
				oracleScenario{base + "observe", kind, p, budget, walk},
			)
		}
	}
	rng := rand.New(rand.NewSource(0x50C1EA5))
	for i := 0; i < 64; i++ {
		words := make([]uint32, 32)
		for j := range words {
			switch j % 4 {
			case 3: // raw random: mostly illegal opcodes
				words[j] = rng.Uint32()
			case 1: // valid opcode, random fields
				words[j] = uint32(rng.Intn(isa.NumOps))<<26 | rng.Uint32()&(1<<26-1)
			default: // valid opcode, small fields
				words[j] = uint32(rng.Intn(isa.NumOps))<<26 | uint32(rng.Intn(1<<16))
			}
		}
		p := &prog.Program{Name: fmt.Sprintf("soup%02d", i), Words: words, MemWords: 16}
		for _, kind := range []CoreKind{InO, OoO} {
			// Flip inside the image's fault-free run so the strike lands.
			n := NewCore(kind, p).Run(512).Steps
			out = append(out, oracleScenario{fmt.Sprintf("%v/soup%02d/flip", kind, i), kind, p, 512,
				[]oracleEvent{flipAt(rng.Intn(n), rng.Intn(SpaceBits(kind)))}})
		}
	}
	return out
}

// oracleLines runs every scenario and returns the fixture contents.
func oracleLines(t testing.TB) []string {
	var lines []string
	for _, s := range oracleScenarios(t) {
		lines = append(lines, s.run(t))
	}
	return lines
}

func readOracleFixture(t *testing.T) []string {
	data, err := os.ReadFile(oracleFixture)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	return lines
}

const oracleHeader = `# Pipeline oracle: chained state digests of both cores (TestPipelineOracle).
# Line: <scenario> <final cycle> <digest at cycle 256> <digest at 512> ... <digest at end>
`

// TestPipelineOracle pins both cores' cycle-level behaviour, fault-free and
// under injected flips and observations, to a committed fixture of chained
// state digests. A state sample is taken every 16th cycle, at each flip or
// observation and at the end; the chain is recorded every 256 cycles, so a
// divergence is localised to one 256-cycle window. On a mismatch the
// recomputed fixture is written to a fresh temporary directory (it outlives
// the test, so it can be inspected or diffed) and its path is logged.
func TestPipelineOracle(t *testing.T) {
	want := readOracleFixture(t)
	got := oracleLines(t)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		reportOracleMismatch(t, got, want)
		t.Fatalf("pipeline behaviour diverged from %s", oracleFixture)
	}
}

// reportOracleMismatch logs the first differing window of each diverged
// scenario and writes the recomputed fixture for inspection.
func reportOracleMismatch(t *testing.T, got, want []string) {
	t.Helper()
	wantBy := map[string][]string{}
	for _, l := range want {
		f := strings.Fields(l)
		wantBy[f[0]] = f[1:]
	}
	shown := 0
	for _, l := range got {
		f := strings.Fields(l)
		w, ok := wantBy[f[0]]
		switch {
		case !ok:
			t.Errorf("%s: scenario missing from the fixture", f[0])
		case strings.Join(w, " ") != strings.Join(f[1:], " "):
			k := 1
			for k < len(f)-1 && k < len(w) && f[1+k] == w[k] {
				k++
			}
			t.Errorf("%s: diverged in cycles (%d, %d] (final cycle %s, fixture %s)",
				f[0], (k-1)*oracleRecordEvery, k*oracleRecordEvery, f[1], w[0])
		default:
			continue
		}
		if shown++; shown == 10 {
			t.Errorf("... further mismatches omitted")
			break
		}
	}
	dir, err := os.MkdirTemp("", "pipeline-oracle-")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, filepath.Base(oracleFixture))
	if err := os.WriteFile(path, []byte(oracleHeader+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recomputed oracle written to %s", path)
}
