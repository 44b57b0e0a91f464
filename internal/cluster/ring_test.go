package cluster

import (
	"fmt"
	"testing"
)

func mustRing(t *testing.T, nodes []string, replicas int, lf float64) *Ring {
	t.Helper()
	r, err := NewRing(nodes, replicas, lf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0, 0); err == nil {
		t.Fatal("empty node set accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0, 0); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0, 0); err == nil {
		t.Fatal("empty node name accepted")
	}
}

// TestRingDeterminism: placement is a pure function of the node SET —
// input order, repeated construction and process lifetime must not matter.
func TestRingDeterminism(t *testing.T) {
	a := mustRing(t, []string{"n1", "n2", "n3"}, 64, 1.25)
	b := mustRing(t, []string{"n3", "n1", "n2"}, 64, 1.25)
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("ch-%d", i)
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("owner of %s differs across construction orders: %s vs %s", id, a.Owner(id), b.Owner(id))
		}
	}
	ids := make([]string, 500)
	for i := range ids {
		ids[i] = fmt.Sprintf("ch-%d", i)
	}
	pa, err := a.PlaceAll(ids)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PlaceAll(ids)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range pa {
		if pb[id] != n {
			t.Fatalf("PlaceAll disagrees for %s: %s vs %s", id, n, pb[id])
		}
	}
}

// TestRingBoundedLoad: no node exceeds ceil(loadFactor·m/n) channels under
// a canonical full placement, for several fleet sizes.
func TestRingBoundedLoad(t *testing.T) {
	for _, nNodes := range []int{2, 3, 5, 8} {
		nodes := make([]string, nNodes)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("node-%d", i)
		}
		r := mustRing(t, nodes, 0, 1.25)
		ids := make([]string, 1000)
		for i := range ids {
			ids[i] = fmt.Sprintf("stream-%d", i)
		}
		placement, err := r.PlaceAll(ids)
		if err != nil {
			t.Fatal(err)
		}
		load := map[string]int{}
		for _, n := range placement {
			load[n]++
		}
		cap_ := r.MaxLoad(len(ids) - 1)
		for n, c := range load {
			if c > cap_ {
				t.Fatalf("%d nodes: %s carries %d channels, bound is %d", nNodes, n, c, cap_)
			}
			if c == 0 {
				t.Fatalf("%d nodes: %s got nothing — virtual points too clumped", nNodes, n)
			}
		}
	}
}

// TestRingStability: removing one node of three must move only that node's
// channels (plus bounded-load spill) — the consistent-hashing property the
// failover path depends on.
func TestRingStability(t *testing.T) {
	full := mustRing(t, []string{"a", "b", "c"}, 0, 1.25)
	ids := make([]string, 600)
	for i := range ids {
		ids[i] = fmt.Sprintf("ch-%d", i)
	}
	before, err := full.PlaceAll(ids)
	if err != nil {
		t.Fatal(err)
	}
	reduced := mustRing(t, []string{"a", "b"}, 0, 1.25)
	after, err := reduced.PlaceAll(ids)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, id := range ids {
		if before[id] != "c" && before[id] != after[id] {
			moved++
		}
	}
	// Survivor-to-survivor churn comes only from the load bound re-packing;
	// it must stay a small fraction of the keyspace.
	if frac := float64(moved) / float64(len(ids)); frac > 0.25 {
		t.Fatalf("%d/%d survivor channels moved (%.0f%%) when c left — placement is not stable", moved, len(ids), 100*frac)
	}
}

// TestRingLookupAllocs gates the routed hot path at zero allocations per
// lookup (acceptance criterion: 0 allocs/op per routed segment).
func TestRingLookupAllocs(t *testing.T) {
	r := mustRing(t, []string{"a", "b", "c"}, 0, 1.25)
	load := []int{10, 12, 9}
	if n := testing.AllocsPerRun(1000, func() {
		_ = r.Owner("channel-under-test")
	}); n != 0 {
		t.Fatalf("Ring.Owner allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := r.Place("channel-under-test", load, 31); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Ring.Place allocates %v/op, want 0", n)
	}
}

// TestTableHotPathAllocs gates the per-segment routing bookkeeping — table
// lookup, in-flight registration, release — at zero allocations.
func TestTableHotPathAllocs(t *testing.T) {
	tbl := newTable()
	node := newNode(NodeSpec{Name: "a", URL: "http://invalid"})
	if _, err := tbl.ensure("ch-0", func(string) (*Node, error) { return node, nil }); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e := tbl.get("ch-0")
		if _, _, ok := e.beginSegment(); !ok {
			t.Fatal("unexpected migration")
		}
		e.endSegment()
	}); n != 0 {
		t.Fatalf("table hot path allocates %v/op, want 0", n)
	}
}

func TestParseNodeSpecs(t *testing.T) {
	specs, err := ParseNodeSpecs("a=http://x:1,b=http://y:2/=/shared/b, ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs, want 2", len(specs))
	}
	if specs[0].Name != "a" || specs[0].URL != "http://x:1" || specs[0].SnapshotDir != "" {
		t.Fatalf("spec 0: %+v", specs[0])
	}
	if specs[1].Name != "b" || specs[1].URL != "http://y:2" || specs[1].SnapshotDir != "/shared/b" {
		t.Fatalf("spec 1: %+v", specs[1])
	}
	specs, err = ParseNodeSpecs("c=http://z:3=/shared/c/snap=/shared/c/wal")
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].SnapshotDir != "/shared/c/snap" || specs[0].WALDir != "/shared/c/wal" {
		t.Fatalf("4-field spec: %+v", specs[0])
	}
	for _, bad := range []string{"", "=http://x", "a=", "justaname"} {
		if _, err := ParseNodeSpecs(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
