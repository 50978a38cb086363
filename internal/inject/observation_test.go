package inject

import (
	"encoding/binary"
	"reflect"
	"testing"

	"clear/internal/ino"
	"clear/internal/ooo"
	"clear/internal/prog"
	"clear/internal/sim"
)

// mirrorFieldBits returns the flip-flop bit indices of named pipeline
// structures that live behind each core's unpacked latch mirror — ROB, issue
// queue and store queue entries on the OoO core, execute/memory latches on
// the InO core. Injections targeted here exercise the mirror's
// pack/unpack boundary rather than arbitrary bits.
func mirrorFieldBits(t testing.TB, kind CoreKind) []int {
	t.Helper()
	names := map[CoreKind][]string{
		InO: {"e.op1", "e.ctrl.inst", "w.s.icc"},
		OoO: {"rob.head.reg", "rob.inst5", "rob.done7", "rob.count.reg",
			"sched0.s1val3", "sched0.valid2", "sched0.rob9",
			"mem.stq.address2", "mem.stq.count.reg", "mem.stq.valid0"},
	}[kind]
	sp := ino.Space()
	if kind == OoO {
		sp = ooo.Space()
	}
	var bits []int
	for _, n := range names {
		bs := sp.BitsOf(n)
		if len(bs) == 0 {
			t.Fatalf("%v: field %q missing from space", kind, n)
		}
		bits = append(bits, bs...)
	}
	return bits
}

// flushRecover applies InO flush recovery; the OoO core has none.
func flushRecover(c sim.Core) {
	if c, ok := c.(*ino.Core); ok {
		c.FlushRecover()
	}
}

// FuzzObservationInvariance is the property that observing a core never
// changes its future. For an arbitrary program image (any byte soup — valid
// instructions, illegal opcodes, accidental control flow) one core is
// observed at arbitrary cycles through State, Snapshot, Matches, identity
// Restore, InFlight and DiffFrom while its unpacked latch mirror is live; an
// unobserved twin receives only the same bit flips, mid-run Restore and
// FlushRecover. Both cores must end in identical full state with identical
// output.
func FuzzObservationInvariance(f *testing.F) {
	// Seed with an empty image, structured noise, and a halt-terminated
	// fragment; the fuzzer mutates from there.
	f.Add([]byte{}, uint32(3), uint32(0))
	f.Add([]byte{0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint32(40), uint32(5))
	f.Add([]byte{
		0x00, 0x00, 0x20, 0x48, // addi r1, r1, ...
		0x00, 0x00, 0x40, 0x10, // mix of R-type fields
		0x01, 0x00, 0x20, 0x74, // sw-ish
		0x00, 0x00, 0x00, 0x04, // halt
	}, uint32(100), uint32(2))
	f.Fuzz(func(t *testing.T, data []byte, bitSeed, cycleSeed uint32) {
		const maxWords = 32
		n := len(data) / 4
		if n > maxWords {
			n = maxWords
		}
		words := make([]uint32, n)
		for i := 0; i < n; i++ {
			words[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		p := &prog.Program{Name: "fuzz", Words: words, MemWords: 16}

		for _, kind := range []CoreKind{InO, OoO} {
			obs, twin := NewCore(kind, p), NewCore(kind, p)
			scratch := NewCore(kind, p).(sim.GangCore)

			// The rewind target comes from an independent fault-free core,
			// so neither core's history leaks into the other through it.
			src := NewCore(kind, p)
			for i := 0; i < int(cycleSeed>>8)%128 && !src.Done(); i++ {
				src.Step()
			}
			rewind := src.Snapshot()

			mirrorBits := mirrorFieldBits(t, kind)
			bit := int(bitSeed) % SpaceBits(kind)
			flipStep := int(cycleSeed % 256)
			rewindStep := int((bitSeed ^ cycleSeed) % 256)
			obsSeed := bitSeed*2654435761 ^ cycleSeed
			var flights []sim.InFlightInst
			const maxSteps = 512
			for step := 0; step < maxSteps && !(obs.Done() && twin.Done()); step++ {
				if step == flipStep {
					obs.State().FlipBit(bit)
					twin.State().FlipBit(bit)
				}
				if step == rewindStep {
					// Rewind mid-run, strike a mirrored structure, and (InO)
					// flush-recover, in lockstep on both cores.
					mb := mirrorBits[int(bitSeed>>8)%len(mirrorBits)]
					for _, c := range []sim.Core{obs, twin} {
						c.Restore(rewind)
						c.State().FlipBit(mb)
						flushRecover(c)
					}
				}
				obs.Step()
				twin.Step()

				h := (uint32(step)+1)*0x9E3779B9 ^ obsSeed
				switch h >> 29 {
				case 0:
					obs.State()
				case 1:
					ck := obs.Snapshot()
					obs.Restore(ck)
					if !obs.Matches(ck) {
						t.Fatalf("%v: identity Restore does not Match at step %d", kind, step)
					}
				case 2:
					if ck := obs.Snapshot(); !obs.Matches(ck) {
						t.Fatalf("%v: core does not Match its own snapshot at step %d", kind, step)
					}
				case 3:
					flights = obs.InFlight(flights[:0])
				case 4:
					scratch.CopyStateFrom(obs)
					if h&1 == 1 {
						scratch.State() // mixed representations: DiffFrom packs obs
					}
					if d := obs.(sim.GangCore).DiffFrom(scratch); d != 0 {
						t.Fatalf("%v: DiffFrom a fresh copy reports class %d at step %d", kind, d, step)
					}
				}
			}
			if !reflect.DeepEqual(obs.Output(), twin.Output()) {
				t.Fatalf("%v: output streams diverged: observed %v vs twin %v", kind, obs.Output(), twin.Output())
			}
			ckObs, ckTwin := obs.Snapshot(), twin.Snapshot()
			if !twin.Matches(ckObs) || !obs.Matches(ckTwin) {
				t.Fatalf("%v: observed core's full state diverged from its unobserved twin after %d cycles",
					kind, twin.Cycles())
			}
		}
	})
}

// TestThreadedNominalEquivalence pins the fault-free case: on both cores the
// tiny program's pipelined run halts with the functional simulator's
// output, and a core rebound with Reset after an injected run reproduces a
// fresh core's result and full final state.
func TestThreadedNominalEquivalence(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		fresh := NewCore(kind, p)
		want := fresh.Run(100000)
		if want.Status != prog.StatusHalted || !reflect.DeepEqual(want.Output, p.Expected) {
			t.Fatalf("%v: nominal run %v with output %v, functional simulator gives %v",
				kind, want.Status, want.Output, p.Expected)
		}
		c := NewCore(kind, p)
		for i := 0; i < 40; i++ {
			c.Step()
		}
		c.State().FlipBit(mirrorFieldBits(t, kind)[0])
		c.Run(100000)
		c.Reset(p)
		if got := c.Run(100000); !reflect.DeepEqual(got, want) || !c.Matches(fresh.Snapshot()) {
			t.Fatalf("%v: run after Reset differs from a fresh core: %+v vs %+v", kind, got, want)
		}
	}
}

// TestMirrorObservationBoundaries walks a core through every observation
// point while its unpacked mirror is live — mid-run Snapshot, Matches,
// identity Restore and InFlight — and applies bit flips targeted into
// mirrored ROB/IQ/SQ (OoO) and pipeline-latch (InO) fields, and
// FlushRecover on the in-order core, to it and to an unobserved twin in
// lockstep. The twin must end in the observed core's exact state.
func TestMirrorObservationBoundaries(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		obs, twin := NewCore(kind, p), NewCore(kind, p)
		mirrorBits := mirrorFieldBits(t, kind)
		const maxCycles = 400
		for cyc := 1; cyc <= maxCycles && !twin.Done(); cyc++ {
			obs.Step()
			twin.Step()
			switch {
			case cyc%32 == 0: // observation boundary: snapshot + identity restore
				ck := obs.Snapshot()
				obs.Restore(ck)
				if !obs.Matches(ck) {
					t.Fatalf("%v: identity Restore does not Match at cycle %d", kind, cyc)
				}
				obs.InFlight(nil)
			case cyc%13 == 0: // inject into a mirrored structure mid-run
				mb := mirrorBits[(cyc/13)%len(mirrorBits)]
				obs.State().FlipBit(mb)
				twin.State().FlipBit(mb)
			case cyc%47 == 0: // flush recovery with the mirror live
				flushRecover(obs)
				flushRecover(twin)
			}
		}
		if !twin.Matches(obs.Snapshot()) || !reflect.DeepEqual(obs.Result(), twin.Result()) {
			t.Fatalf("%v: observed core diverged from its unobserved twin", kind)
		}
	}
}

// BenchmarkCampaign measures the full campaign loop on both cores.
func BenchmarkCampaign(b *testing.B) {
	p := tinyProgram(b)
	for _, kind := range []CoreKind{InO, OoO} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := Config{Core: kind, Bench: "tiny", SamplesPerFF: 1, Seed: 0xC1EA5}
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
