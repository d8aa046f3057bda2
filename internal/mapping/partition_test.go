package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidates(t *testing.T) {
	if _, err := New([]int{0, 1, 2}, 3); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if _, err := New([]int{0, 3}, 3); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := New([]int{-1, 0}, 2); err == nil {
		t.Fatal("negative label accepted")
	}
	if _, err := New([]int{0, 0}, 2); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := New(nil, 2); err == nil {
		t.Fatal("empty assignment accepted")
	}
	if _, err := New([]int{0}, 0); err == nil {
		t.Fatal("zero clusters accepted")
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []int{0, 1}
	p, err := New(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 1
	if p.Cluster(0) != 0 {
		t.Fatal("New aliased the caller's slice")
	}
}

func TestBalanced(t *testing.T) {
	p, err := Balanced(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 16 || p.M() != 4 {
		t.Fatalf("N=%d M=%d", p.N(), p.M())
	}
	for c := 0; c < 4; c++ {
		if p.Size(c) != 4 {
			t.Fatalf("cluster %d size = %d, want 4", c, p.Size(c))
		}
	}
	if p.Cluster(0) != 0 || p.Cluster(15) != 3 {
		t.Fatal("contiguous layout wrong")
	}
	if _, err := Balanced(10, 4); err == nil {
		t.Fatal("indivisible balanced partition accepted")
	}
}

func TestRandomBalancedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, err := Random(16, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if p.Size(c) != 4 {
			t.Fatalf("cluster %d size = %d, want 4", c, p.Size(c))
		}
	}
	if _, err := Random(15, 4, rng); err == nil {
		t.Fatal("indivisible random partition accepted")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a, _ := Random(16, 4, rand.New(rand.NewSource(5)))
	b, _ := Random(16, 4, rand.New(rand.NewSource(5)))
	if !a.Equal(b) {
		t.Fatal("same seed gave different partitions")
	}
	c, _ := Random(16, 4, rand.New(rand.NewSource(6)))
	if a.Equal(c) {
		t.Fatal("different seeds gave identical partitions (suspicious)")
	}
}

func TestRandomSizes(t *testing.T) {
	p, err := RandomSizes([]int{2, 3, 5}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 10 || p.M() != 3 {
		t.Fatalf("N=%d M=%d", p.N(), p.M())
	}
	if p.Size(0) != 2 || p.Size(1) != 3 || p.Size(2) != 5 {
		t.Fatal("cluster sizes not honored")
	}
	if _, err := RandomSizes([]int{2, 0}, rand.New(rand.NewSource(3))); err == nil {
		t.Fatal("zero-size cluster accepted")
	}
	if _, err := RandomSizes(nil, rand.New(rand.NewSource(3))); err == nil {
		t.Fatal("empty size list accepted")
	}
}

func TestMembersSortedCopy(t *testing.T) {
	p, _ := New([]int{1, 0, 1, 0}, 2)
	ms := p.Members(1)
	if len(ms) != 2 || ms[0] != 0 || ms[1] != 2 {
		t.Fatalf("Members(1) = %v, want [0 2]", ms)
	}
	ms[0] = 99
	if p.Members(1)[0] == 99 {
		t.Fatal("Members exposed internal storage")
	}
}

func TestSwap(t *testing.T) {
	p, _ := New([]int{0, 0, 1, 1}, 2)
	p.Swap(0, 2)
	if p.Cluster(0) != 1 || p.Cluster(2) != 0 {
		t.Fatal("Swap did not exchange clusters")
	}
	if p.Size(0) != 2 || p.Size(1) != 2 {
		t.Fatal("Swap changed cluster sizes")
	}
	// Member lists stay consistent.
	found := false
	for _, s := range p.MembersUnordered(0) {
		if s == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("members list not updated by Swap")
	}
}

func TestSwapSameClusterNoop(t *testing.T) {
	p, _ := New([]int{0, 0, 1, 1}, 2)
	q := p.Clone()
	p.Swap(0, 1)
	if !p.Equal(q) {
		t.Fatal("same-cluster swap changed the partition")
	}
}

func TestSwapInvolution(t *testing.T) {
	p, _ := Random(16, 4, rand.New(rand.NewSource(7)))
	q := p.Clone()
	p.Swap(3, 9)
	p.Swap(3, 9)
	if !p.Equal(q) {
		t.Fatal("double swap is not the identity")
	}
}

func TestCloneIndependent(t *testing.T) {
	p, _ := New([]int{0, 1}, 2)
	q := p.Clone()
	p.Swap(0, 1)
	if q.Cluster(0) != 0 {
		t.Fatal("Clone shares state with original")
	}
	// Swaps on a clone keep its member lists consistent and leave the
	// original's alone.
	rng := rand.New(rand.NewSource(4))
	p, _ = RandomSizes([]int{3, 1, 5, 2}, rng)
	orig := p.Assign()
	q = p.Clone()
	for i := 0; i < 200; i++ {
		q.Swap(rng.Intn(q.N()), rng.Intn(q.N()))
	}
	for _, part := range []*Partition{p, q} {
		seen := make([]int, part.N())
		for c := 0; c < part.M(); c++ {
			for _, s := range part.MembersUnordered(c) {
				if part.Cluster(s) != c {
					t.Fatalf("switch %d listed in cluster %d, assigned to %d", s, c, part.Cluster(s))
				}
				seen[s]++
			}
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("switch %d listed %d times", s, n)
			}
		}
	}
	for s, c := range orig {
		if p.Cluster(s) != c {
			t.Fatal("swaps on a clone changed the original")
		}
	}
}

func TestEqual(t *testing.T) {
	a, _ := New([]int{0, 1}, 2)
	b, _ := New([]int{0, 1}, 2)
	c, _ := New([]int{1, 0}, 2)
	if !a.Equal(b) {
		t.Fatal("identical partitions not Equal")
	}
	if a.Equal(c) {
		t.Fatal("different partitions Equal")
	}
	if a.Equal(nil) {
		t.Fatal("nil partition Equal")
	}
	d, _ := New([]int{0, 1, 2}, 3)
	if a.Equal(d) {
		t.Fatal("different sizes Equal")
	}
}

func TestCanonical(t *testing.T) {
	// Same partition, different labels.
	a, _ := New([]int{1, 1, 0, 0}, 2)
	b, _ := New([]int{0, 0, 1, 1}, 2)
	if !a.Canonical().Equal(b.Canonical()) {
		t.Fatal("canonical forms of relabeled partitions differ")
	}
	// Canonical labels clusters by smallest member: switch 0's cluster is 0.
	if a.Canonical().Cluster(0) != 0 {
		t.Fatal("canonical cluster of switch 0 must be 0")
	}
}

func TestString(t *testing.T) {
	p, _ := New([]int{1, 0, 1, 0}, 2)
	want := "(0,2) (1,3)"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestAssignCopy(t *testing.T) {
	p, _ := New([]int{0, 1}, 2)
	a := p.Assign()
	a[0] = 1
	if p.Cluster(0) != 0 {
		t.Fatal("Assign exposed internal storage")
	}
}

func TestPartitionJSONRoundTrip(t *testing.T) {
	p, err := Random(16, 4, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPartitionJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(back) {
		t.Fatal("JSON round trip changed the partition")
	}
	if _, err := UnmarshalPartitionJSON([]byte(`{"clusters":2,"assign":[0,5]}`)); err == nil {
		t.Fatal("invalid assignment accepted")
	}
	if _, err := UnmarshalPartitionJSON([]byte(`junk`)); err == nil {
		t.Fatal("junk accepted")
	}
}

// Property: any sequence of random swaps preserves the cluster-size
// multiset and keeps assign/members/pos consistent.
func TestQuickSwapConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, err := Random(16, 4, rng)
		if err != nil {
			return false
		}
		for k := 0; k < 50; k++ {
			p.Swap(rng.Intn(16), rng.Intn(16))
		}
		// Sizes preserved.
		for c := 0; c < 4; c++ {
			if p.Size(c) != 4 {
				return false
			}
		}
		// Members consistent with assign.
		seen := map[int]bool{}
		for c := 0; c < 4; c++ {
			for _, s := range p.MembersUnordered(c) {
				if p.Cluster(s) != c || seen[s] {
					return false
				}
				seen[s] = true
			}
		}
		return len(seen) == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
