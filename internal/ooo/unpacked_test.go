package ooo

import (
	"math/rand"
	"testing"

	"clear/internal/isa"
	"clear/internal/prog"
)

// TestMirrorRoundTrip asserts the unpacked mirror is lossless over arbitrary
// packed states: unpackU followed by packU must reproduce every bit,
// including values (corrupted head/tail pointers, out-of-range counts,
// garbage instruction words) no fault-free run would ever hold. This is the
// invariant that lets FlipBit target any flip-flop between compiled steps.
func TestMirrorRoundTrip(t *testing.T) {
	p := &prog.Program{Name: "rt", Words: []uint32{0}, MemWords: 4}
	c := New(p)
	rng := rand.New(rand.NewSource(0xC1EA5))
	bits := c.space.NumBits()
	for iter := 0; iter < 64; iter++ {
		for b := 0; b < bits; b++ {
			if rng.Intn(2) == 1 {
				c.st.FlipBit(b)
			}
		}
		want := c.st.Clone()
		c.unpackU()
		c.uValid = true
		c.syncU()
		if !c.st.Equal(want) {
			t.Fatalf("iter %d: pack(unpack(state)) != state", iter)
		}
	}
}

// TestMirrorStaysCoherentAcrossObservations runs a core while hitting
// every observation point and asserts the observations never change its
// future: an unobserved twin must end in the same full state, and Restore
// must leave the packed state authoritative.
func TestMirrorStaysCoherentAcrossObservations(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 12)
	b.Label("loop")
	b.Addi(1, 1, 3)
	b.Sw(1, 0, 2)
	b.Lw(3, 0, 2)
	b.Bne(1, 2, "loop")
	b.Out(3)
	b.Halt()
	p, err := prog.New("coherent", b.Items(), nil, 8)
	if err != nil {
		t.Fatal(err)
	}

	obs := New(p)
	twin := New(p) // never observed until the end

	for cyc := 1; cyc <= 300 && !twin.done; cyc++ {
		obs.Step()
		twin.Step()
		switch {
		case cyc%17 == 0:
			ck := obs.Snapshot()
			if !obs.uValid {
				t.Fatalf("cycle %d: Snapshot invalidated the live mirror", cyc)
			}
			obs.Restore(ck)
			if obs.uValid {
				t.Fatalf("cycle %d: Restore left the mirror marked valid", cyc)
			}
			if !obs.Matches(ck) {
				t.Fatalf("cycle %d: identity Restore does not Match", cyc)
			}
		case cyc%5 == 0:
			obs.State()
		case cyc%7 == 0:
			obs.InFlight(nil)
		}
	}
	if twin.status != prog.StatusHalted || obs.status != twin.status || !twin.Matches(obs.Snapshot()) {
		t.Fatalf("final state diverged: observed %v vs twin %v", obs.status, twin.status)
	}
}
