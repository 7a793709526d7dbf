package keyrange

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// skewedSizes mimics a CNN layout: many small conv-layer keys plus one
// dominant fully-connected key, the situation that breaks PS-Lite's
// default slicing.
func skewedSizes() []int {
	sizes := make([]int, 16)
	for i := range sizes {
		sizes[i] = 100
	}
	sizes[15] = 100000
	return sizes
}

func TestNewLayoutValidation(t *testing.T) {
	if _, err := NewLayout(nil); err == nil {
		t.Error("empty layout should error")
	}
	if _, err := NewLayout([]int{10, 0, 5}); err == nil {
		t.Error("zero-size key should error")
	}
	if _, err := NewLayout([]int{10, -1}); err == nil {
		t.Error("negative-size key should error")
	}
}

func TestLayoutOffsets(t *testing.T) {
	l := MustLayout([]int{3, 5, 2})
	if l.NumKeys() != 3 || l.TotalDim() != 10 {
		t.Fatalf("NumKeys=%d TotalDim=%d", l.NumKeys(), l.TotalDim())
	}
	wantOff := []int{0, 3, 8}
	for k := 0; k < 3; k++ {
		if l.KeyOffset(Key(k)) != wantOff[k] {
			t.Errorf("offset[%d] = %d, want %d", k, l.KeyOffset(Key(k)), wantOff[k])
		}
	}
	vec := make([]float64, 10)
	for i := range vec {
		vec[i] = float64(i)
	}
	s := l.Slice(vec, 1)
	if len(s) != 5 || s[0] != 3 || s[4] != 7 {
		t.Errorf("Slice(vec,1) = %v", s)
	}
}

func TestMustLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLayout should panic on invalid sizes")
		}
	}()
	MustLayout([]int{})
}

func TestDefaultSlicingContiguousAndComplete(t *testing.T) {
	l := MustLayout(skewedSizes())
	a, err := DefaultSlicing(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumServers() != 4 {
		t.Fatalf("NumServers = %d", a.NumServers())
	}
	// Contiguity: server id must be non-decreasing over keys.
	prev := 0
	for k := 0; k < l.NumKeys(); k++ {
		s := a.ServerOf(Key(k))
		if s < prev {
			t.Fatalf("default slicing not contiguous at key %d", k)
		}
		prev = s
	}
	// Every server gets 4 of the 16 keys.
	for m := 0; m < 4; m++ {
		if got := len(a.KeysOf(m)); got != 4 {
			t.Errorf("server %d has %d keys, want 4", m, got)
		}
	}
}

func TestDefaultSlicingIsImbalancedOnSkew(t *testing.T) {
	l := MustLayout(skewedSizes())
	a, err := DefaultSlicing(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if imb := a.Imbalance(l); imb < 3.5 {
		t.Errorf("expected severe imbalance under skew, got %.2f", imb)
	}
}

func TestEPSBalancesSkew(t *testing.T) {
	l := MustLayout(skewedSizes())
	a, err := EPS(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The single huge key dominates: optimal max load is 100000. LPT
	// guarantees within 4/3 of optimal, and here achieves exactly optimal.
	loads := a.Loads(l)
	maxLoad := 0
	for _, ld := range loads {
		if ld > maxLoad {
			maxLoad = ld
		}
	}
	if maxLoad != 100000 {
		t.Errorf("EPS max load = %d, want 100000 (the unavoidable huge key)", maxLoad)
	}
}

func TestEPSBeatsDefaultOnUniformRandomSizes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		sizes := make([]int, 32)
		for i := range sizes {
			sizes[i] = 1 + r.Intn(10000)
		}
		l := MustLayout(sizes)
		def, _ := DefaultSlicing(l, 8)
		eps, _ := EPS(l, 8)
		if eps.Imbalance(l) > def.Imbalance(l)+1e-9 {
			t.Errorf("trial %d: EPS imbalance %.3f worse than default %.3f",
				trial, eps.Imbalance(l), def.Imbalance(l))
		}
	}
}

func TestSlicingErrors(t *testing.T) {
	l := MustLayout([]int{1, 2, 3})
	if _, err := DefaultSlicing(l, 0); err == nil {
		t.Error("DefaultSlicing with 0 servers should error")
	}
	if _, err := EPS(l, -1); err == nil {
		t.Error("EPS with negative servers should error")
	}
}

func TestSingleServerAssignsEverything(t *testing.T) {
	l := MustLayout(skewedSizes())
	for _, mk := range []func(*Layout, int) (*Assignment, error){DefaultSlicing, EPS} {
		a, err := mk(l, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < l.NumKeys(); k++ {
			if a.ServerOf(Key(k)) != 0 {
				t.Fatalf("key %d not on server 0", k)
			}
		}
		if a.Imbalance(l) != 1 {
			t.Errorf("single server imbalance = %v, want 1", a.Imbalance(l))
		}
	}
}

func TestMoreServersThanKeys(t *testing.T) {
	l := MustLayout([]int{5, 5})
	a, err := EPS(l, 8)
	if err != nil {
		t.Fatal(err)
	}
	loads := a.Loads(l)
	nonzero := 0
	for _, ld := range loads {
		if ld > 0 {
			nonzero++
		}
	}
	if nonzero != 2 {
		t.Errorf("expected exactly 2 loaded servers, got %d", nonzero)
	}
}

func TestRebalanceMovesOnlyOrphans(t *testing.T) {
	l := MustLayout(skewedSizes())
	a, _ := EPS(l, 4)
	alive := []bool{true, true, false, true}
	b, err := Rebalance(a, l, alive)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < l.NumKeys(); k++ {
		oldS, newS := a.ServerOf(Key(k)), b.ServerOf(Key(k))
		if alive[oldS] && newS != oldS {
			t.Errorf("key %d moved from alive server %d to %d", k, oldS, newS)
		}
		if !alive[newS] {
			t.Errorf("key %d assigned to dead server %d", k, newS)
		}
	}
	if Moved(a, b) != len(a.KeysOf(2)) {
		t.Errorf("Moved = %d, want %d (exactly the dead server's keys)", Moved(a, b), len(a.KeysOf(2)))
	}
}

func TestRebalanceErrors(t *testing.T) {
	l := MustLayout([]int{1, 2})
	a, _ := EPS(l, 2)
	if _, err := Rebalance(a, l, []bool{true}); err == nil {
		t.Error("wrong-length alive should error")
	}
	if _, err := Rebalance(a, l, []bool{false, false}); err == nil {
		t.Error("all-dead should error")
	}
}

func TestRebalanceNoOpWhenAllAlive(t *testing.T) {
	l := MustLayout(skewedSizes())
	a, _ := EPS(l, 4)
	b, err := Rebalance(a, l, []bool{true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if Moved(a, b) != 0 {
		t.Errorf("rebalance with all alive moved %d keys", Moved(a, b))
	}
}

func TestScaleUpValidation(t *testing.T) {
	l := MustLayout([]int{1, 2, 3})
	a, _ := EPS(l, 3)
	if _, err := ScaleUp(a, l, 2); err == nil {
		t.Error("shrinking via ScaleUp accepted")
	}
	same, err := ScaleUp(a, l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if Moved(a, same) != 0 {
		t.Error("no-op scale-up moved keys")
	}
}

// Property: every key is assigned to a valid server and total load is
// preserved, for both slicers and arbitrary layouts.
func TestSlicingProperties(t *testing.T) {
	f := func(rawSizes []uint16, rawServers uint8) bool {
		sizes := make([]int, 0, len(rawSizes))
		for _, s := range rawSizes {
			if s > 0 {
				sizes = append(sizes, int(s))
			}
		}
		if len(sizes) == 0 {
			return true
		}
		servers := int(rawServers%16) + 1
		l := MustLayout(sizes)
		for _, mk := range []func(*Layout, int) (*Assignment, error){DefaultSlicing, EPS} {
			a, err := mk(l, servers)
			if err != nil {
				return false
			}
			sum := 0
			for _, ld := range a.Loads(l) {
				sum += ld
			}
			if sum != l.TotalDim() {
				return false
			}
			for k := 0; k < l.NumKeys(); k++ {
				s := a.ServerOf(Key(k))
				if s < 0 || s >= servers {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: EPS max load never exceeds 4/3·OPT + largest key bound; we use
// the weaker, always-valid bound max ≤ total/servers + maxKey.
func TestEPSLoadBoundProperty(t *testing.T) {
	f := func(rawSizes []uint16, rawServers uint8) bool {
		sizes := make([]int, 0, len(rawSizes))
		maxKey := 0
		for _, s := range rawSizes {
			if s > 0 {
				sizes = append(sizes, int(s))
				if int(s) > maxKey {
					maxKey = int(s)
				}
			}
		}
		if len(sizes) == 0 {
			return true
		}
		servers := int(rawServers%8) + 1
		l := MustLayout(sizes)
		a, err := EPS(l, servers)
		if err != nil {
			return false
		}
		bound := l.TotalDim()/servers + maxKey
		for _, ld := range a.Loads(l) {
			if ld > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
