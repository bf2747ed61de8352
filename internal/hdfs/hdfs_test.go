package hdfs

import (
	"reflect"
	"testing"
	"testing/quick"

	"eant/internal/cluster"
)

func testCluster(n int) *cluster.Cluster {
	return cluster.MustNew(cluster.Group{Spec: cluster.SpecDesktop, Count: n})
}

func TestPlaceReplicasDistinct(t *testing.T) {
	ns := NewNamespace(testCluster(10), 3, 1)
	f, err := ns.Place(1, 200)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	for b, reps := range f.Blocks {
		if len(reps) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", b, len(reps))
		}
		seen := map[int]bool{}
		for _, id := range reps {
			if seen[id] {
				t.Fatalf("block %d has duplicate replica on machine %d", b, id)
			}
			seen[id] = true
			if id < 0 || id >= 10 {
				t.Fatalf("block %d replica on nonexistent machine %d", b, id)
			}
		}
	}
}

func TestPlaceAllocatesPerFileNotPerBlock(t *testing.T) {
	ns := NewNamespace(testCluster(10), 3, 1)
	// The File, its block index and one replica array, however many blocks.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ns.Place(1, 200); err != nil {
			t.Fatal(err)
		}
		ns.Remove(1)
	})
	if allocs != 3 {
		t.Errorf("Place of 200 blocks made %v allocations, want 3", allocs)
	}
}

func TestPlaceBalanced(t *testing.T) {
	c := testCluster(8)
	ns := NewNamespace(c, 3, 2)
	if _, err := ns.Place(1, 800); err != nil {
		t.Fatal(err)
	}
	// 800 blocks × 3 replicas over 8 machines = 300 expected per machine.
	for id := 0; id < 8; id++ {
		held := ns.BlocksHeld(id)
		if held < 200 || held > 400 {
			t.Errorf("machine %d holds %d replicas, want ≈ 300", id, held)
		}
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	ns := NewNamespace(testCluster(2), 3, 3)
	if ns.Replication() != 2 {
		t.Fatalf("Replication() = %d, want clamped 2", ns.Replication())
	}
	f, err := ns.Place(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, reps := range f.Blocks {
		if len(reps) != 2 {
			t.Fatalf("replica count %d, want 2", len(reps))
		}
	}
}

func TestDefaultReplicationApplied(t *testing.T) {
	ns := NewNamespace(testCluster(5), 0, 4)
	if ns.Replication() != DefaultReplication {
		t.Errorf("Replication() = %d, want %d", ns.Replication(), DefaultReplication)
	}
}

// TestResetAdoptsReplication checks that Reset applies the replica count
// as NewNamespace does, so a reset namespace places like a new one.
func TestResetAdoptsReplication(t *testing.T) {
	c := testCluster(5)
	ns := NewNamespace(c, 3, 1)
	if _, err := ns.Place(1, 20); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 0, 9} {
		ns.Reset(r, 2)
		fresh := NewNamespace(c, r, 2)
		if ns.Replication() != fresh.Replication() {
			t.Fatalf("Reset(%d): Replication() = %d, new namespace has %d", r, ns.Replication(), fresh.Replication())
		}
		got, err := ns.Place(1, 20)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Place(1, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Blocks, want.Blocks) {
			t.Errorf("Reset(%d): placement %v, new namespace placed %v", r, got.Blocks, want.Blocks)
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	ns := NewNamespace(testCluster(5), 3, 5)
	if _, err := ns.Place(1, 0); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := ns.Place(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Place(1, 10); err == nil {
		t.Error("duplicate placement accepted")
	}
}

func TestIsLocalMatchesReplicas(t *testing.T) {
	ns := NewNamespace(testCluster(6), 3, 6)
	if _, err := ns.Place(7, 50); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 50; b++ {
		reps := ns.Replicas(7, b)
		onReplica := map[int]bool{}
		for _, id := range reps {
			onReplica[id] = true
		}
		for id := 0; id < 6; id++ {
			if ns.IsLocal(7, b, id) != onReplica[id] {
				t.Fatalf("IsLocal(7,%d,%d) inconsistent with Replicas", b, id)
			}
		}
	}
}

func TestRemoveReleasesLoad(t *testing.T) {
	ns := NewNamespace(testCluster(4), 2, 7)
	if _, err := ns.Place(1, 100); err != nil {
		t.Fatal(err)
	}
	ns.Remove(1)
	for id := 0; id < 4; id++ {
		if held := ns.BlocksHeld(id); held != 0 {
			t.Errorf("machine %d still holds %d replicas after Remove", id, held)
		}
	}
	if ns.File(1) != nil {
		t.Error("File(1) still present after Remove")
	}
	ns.Remove(1) // idempotent
}

func TestUnplacedLookupsPanic(t *testing.T) {
	ns := NewNamespace(testCluster(3), 2, 8)
	for _, fn := range []func(){
		func() { ns.Replicas(1, 0) },
		func() { ns.IsLocal(1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("lookup on unplaced job did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestExcludeFromPlacement(t *testing.T) {
	ns := NewNamespace(testCluster(5), 3, 10)
	ns.ExcludeFromPlacement(2)
	f, err := ns.Place(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for b, reps := range f.Blocks {
		for _, id := range reps {
			if id == 2 {
				t.Fatalf("block %d placed on excluded machine 2", b)
			}
		}
	}
	if ns.BlocksHeld(2) != 0 {
		t.Error("excluded machine holds replicas")
	}
}

func TestExcludeClampsReplication(t *testing.T) {
	ns := NewNamespace(testCluster(3), 3, 11)
	ns.ExcludeFromPlacement(0)
	f, err := ns.Place(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, reps := range f.Blocks {
		if len(reps) != 2 {
			t.Fatalf("replica count %d with one machine excluded, want 2", len(reps))
		}
	}
}

func TestExcludeAllPanicsOnPlace(t *testing.T) {
	ns := NewNamespace(testCluster(2), 1, 12)
	ns.ExcludeFromPlacement(0)
	ns.ExcludeFromPlacement(1)
	defer func() {
		if recover() == nil {
			t.Error("placement with all machines excluded did not panic")
		}
	}()
	_, _ = ns.Place(1, 1)
}

func TestExcludeInvalidMachinePanics(t *testing.T) {
	ns := NewNamespace(testCluster(2), 1, 13)
	defer func() {
		if recover() == nil {
			t.Error("excluding nonexistent machine did not panic")
		}
	}()
	ns.ExcludeFromPlacement(9)
}

func TestPlacementInvariantsProperty(t *testing.T) {
	f := func(seed int64, blocks uint8, machines uint8) bool {
		n := int(machines)%14 + 2
		b := int(blocks)%60 + 1
		ns := NewNamespace(testCluster(n), 3, seed)
		file, err := ns.Place(1, b)
		if err != nil {
			return false
		}
		total := 0
		for _, reps := range file.Blocks {
			want := 3
			if n < 3 {
				want = n
			}
			if len(reps) != want {
				return false
			}
			seen := map[int]bool{}
			for _, id := range reps {
				if seen[id] || id < 0 || id >= n {
					return false
				}
				seen[id] = true
			}
			total += len(reps)
		}
		held := 0
		for id := 0; id < n; id++ {
			held += ns.BlocksHeld(id)
		}
		return held == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
