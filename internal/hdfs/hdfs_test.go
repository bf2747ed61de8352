package hdfs

import (
	"slices"
	"testing"
	"testing/quick"

	"eant/internal/cluster"
)

func testCluster(n int) *cluster.Cluster {
	return cluster.MustNew(cluster.Group{Spec: cluster.SpecDesktop, Count: n})
}

// place places jobID's input of the given block count and returns its
// blocks' replica lists, one window of the file per block.
func place(t testing.TB, ns *Namespace, jobID, blocks int) [][]int32 {
	t.Helper()
	if err := ns.Place(jobID, blocks); err != nil {
		t.Fatalf("Place: %v", err)
	}
	file := ns.File(jobID)
	if s := ns.Stride(); len(file) != blocks*s {
		t.Fatalf("file of %d blocks holds %d replica IDs, want %d × stride %d", blocks, len(file), blocks, s)
	}
	out := make([][]int32, blocks)
	for b := range out {
		out[b] = ns.Replicas(jobID, b)
	}
	return out
}

func TestPlaceReplicasDistinct(t *testing.T) {
	ns := NewNamespace(testCluster(10), 3, 1)
	for b, reps := range place(t, ns, 1, 200) {
		if len(reps) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", b, len(reps))
		}
		seen := map[int32]bool{}
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

// TestWarmPlaceAllocatesNothing checks that a reset namespace places into
// its retained replica array and file index: after a first run of two
// files, a Reset and the placement of up to as many blocks allocate
// nothing, however many blocks there are.
func TestWarmPlaceAllocatesNothing(t *testing.T) {
	ns := NewNamespace(testCluster(10), 3, 1)
	for job := 1; job <= 2; job++ {
		if err := ns.Place(job, 400); err != nil {
			t.Fatal(err)
		}
	}
	for _, blocks := range []int{1, 200, 800} {
		allocs := testing.AllocsPerRun(20, func() {
			ns.Reset(3, 1)
			if err := ns.Place(1, blocks); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm Place of %d blocks made %v allocations, want 0", blocks, allocs)
		}
	}
}

func TestPlaceBalanced(t *testing.T) {
	c := testCluster(8)
	ns := NewNamespace(c, 3, 2)
	if err := ns.Place(1, 800); err != nil {
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
	for _, reps := range place(t, ns, 1, 5) {
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
	if err := ns.Place(1, 20); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 0, 9} {
		ns.Reset(r, 2)
		fresh := NewNamespace(c, r, 2)
		if ns.Replication() != fresh.Replication() {
			t.Fatalf("Reset(%d): Replication() = %d, new namespace has %d", r, ns.Replication(), fresh.Replication())
		}
		if err := ns.Place(1, 20); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Place(1, 20); err != nil {
			t.Fatal(err)
		}
		if got, want := ns.File(1), fresh.File(1); !slices.Equal(got, want) {
			t.Errorf("Reset(%d): placement %v, new namespace placed %v", r, got, want)
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	ns := NewNamespace(testCluster(5), 3, 5)
	if err := ns.Place(1, 0); err == nil {
		t.Error("zero blocks accepted")
	}
	if err := ns.Place(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := ns.Place(1, 10); err == nil {
		t.Error("duplicate placement accepted")
	}
}

func TestIsLocalMatchesReplicas(t *testing.T) {
	ns := NewNamespace(testCluster(6), 3, 6)
	if err := ns.Place(7, 50); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 50; b++ {
		reps := ns.Replicas(7, b)
		onReplica := map[int]bool{}
		for _, id := range reps {
			onReplica[int(id)] = true
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
	if err := ns.Place(1, 100); err != nil {
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
	for b, reps := range place(t, ns, 1, 100) {
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
	ns.ExcludeFromPlacement(0) // idempotent
	if ns.Stride() != 2 {
		t.Fatalf("Stride() = %d with one of three machines excluded, want 2", ns.Stride())
	}
	for _, reps := range place(t, ns, 1, 10) {
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
	_ = ns.Place(1, 1)
}

// TestExcludeAfterPlacePanics checks that an exclusion, which changes the
// stride, cannot come after a placement laid out at the old one.
func TestExcludeAfterPlacePanics(t *testing.T) {
	ns := NewNamespace(testCluster(4), 3, 14)
	if err := ns.Place(1, 5); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("exclusion after placement did not panic")
		}
	}()
	ns.ExcludeFromPlacement(3)
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
		if err := ns.Place(1, b); err != nil {
			return false
		}
		total := 0
		for blk := 0; blk < b; blk++ {
			reps := ns.Replicas(1, blk)
			want := 3
			if n < 3 {
				want = n
			}
			if len(reps) != want {
				return false
			}
			seen := map[int32]bool{}
			for _, id := range reps {
				if seen[id] || id < 0 || int(id) >= n {
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
