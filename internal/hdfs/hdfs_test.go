package hdfs

import (
	"slices"
	"testing"
	"testing/quick"

	"eant/internal/cluster"
	"eant/internal/workload"
)

func testCluster(n int) *cluster.Cluster {
	return cluster.MustNew(cluster.Group{Spec: cluster.SpecDesktop, Count: n})
}

// job is a mix entry: the job's ID and its input's block count.
func job(id, blocks int) workload.JobSpec { return workload.JobSpec{ID: id, NumMaps: blocks} }

// one is the mix of a single job.
func one(id, blocks int) []workload.JobSpec { return []workload.JobSpec{job(id, blocks)} }

// place places a mix of jobID's input alone, of the given block count,
// and returns its blocks' replica lists, one window of the file per block.
func place(t testing.TB, ns *Namespace, jobID, blocks int) [][]int32 {
	t.Helper()
	if err := ns.Place(one(jobID, blocks)); err != nil {
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
	ns := NewNamespace(testCluster(10), 1)
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
// its retained replica array, file index and placement record: after a
// first run of two files, a Reset and the placement of up to as many
// blocks allocate nothing, however many blocks there are, whether the
// placement is drawn (a new seed each time) or restored (the same inputs
// again).
func TestWarmPlaceAllocatesNothing(t *testing.T) {
	ns := NewNamespace(testCluster(10), 1)
	if err := ns.Place([]workload.JobSpec{job(1, 400), job(2, 400)}); err != nil {
		t.Fatal(err)
	}
	seed := int64(1)
	for _, blocks := range []int{1, 200, 800} {
		for _, redraw := range []bool{true, false} {
			allocs := testing.AllocsPerRun(20, func() {
				if redraw {
					seed++
				}
				ns.Reset(seed)
				if err := ns.Place(one(1, blocks)); err != nil {
					t.Fatal(err)
				}
				if ns.Reused() == redraw {
					t.Fatalf("Reused() = %v for a placement with a new seed: %v", ns.Reused(), redraw)
				}
			})
			if allocs != 0 {
				t.Errorf("warm Place of %d blocks (new seed: %v) made %v allocations, want 0", blocks, redraw, allocs)
			}
		}
	}
}

func TestPlaceBalanced(t *testing.T) {
	c := testCluster(8)
	ns := NewNamespace(c, 2)
	if err := ns.Place(one(1, 800)); err != nil {
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
	ns := NewNamespace(testCluster(2), 3)
	if ns.Stride() != 2 {
		t.Fatalf("Stride() = %d, want clamped 2", ns.Stride())
	}
	for _, reps := range place(t, ns, 1, 5) {
		if len(reps) != 2 {
			t.Fatalf("replica count %d, want 2", len(reps))
		}
	}
}

// TestDefaultReplicationApplied checks that a fleet with room for every
// replica gets Replication of them per block.
func TestDefaultReplicationApplied(t *testing.T) {
	ns := NewNamespace(testCluster(5), 4)
	if ns.Stride() != Replication {
		t.Errorf("Stride() = %d on 5 machines, want %d", ns.Stride(), Replication)
	}
}

// TestPlaceErrors checks the mixes Place rejects, and that a rejected mix
// is not recorded as a placement to restore: placed again after a Reset,
// it fails again.
func TestPlaceErrors(t *testing.T) {
	ns := NewNamespace(testCluster(5), 5)
	if err := ns.Place(one(1, 0)); err == nil {
		t.Error("zero blocks accepted")
	}
	if err := ns.Place(one(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := ns.Place(one(2, 10)); err == nil {
		t.Error("second placement without a Reset accepted")
	}
	dup := []workload.JobSpec{job(1, 10), job(2, 4), job(1, 10)}
	for i := 0; i < 2; i++ {
		ns.Reset(5)
		if err := ns.Place(dup); err == nil {
			t.Errorf("pass %d: duplicate job ID accepted", i)
		}
	}
}

func TestIsLocalMatchesReplicas(t *testing.T) {
	ns := NewNamespace(testCluster(6), 6)
	if err := ns.Place(one(7, 50)); err != nil {
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

func TestUnplacedLookupsPanic(t *testing.T) {
	ns := NewNamespace(testCluster(3), 8)
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

func TestPlacementInvariantsProperty(t *testing.T) {
	f := func(seed int64, blocks uint8, machines uint8) bool {
		n := int(machines)%14 + 2
		b := int(blocks)%60 + 1
		ns := NewNamespace(testCluster(n), seed)
		if err := ns.Place(one(1, b)); err != nil {
			return false
		}
		total := 0
		for blk := 0; blk < b; blk++ {
			reps := ns.Replicas(1, blk)
			if len(reps) != min(Replication, n) {
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

// placeInputs is everything a placement is a function of, besides the
// fleet.
type placeInputs struct {
	seed     int64
	covering []int
	mix      []workload.JobSpec
}

// apply resets ns to the inputs and places their mix.
func (in placeInputs) apply(ns *Namespace) error {
	ns.Reset(in.seed)
	ns.PreferFirstReplicaOn(in.covering)
	return ns.Place(in.mix)
}

// equal reports whether two sets of inputs give the namespace the same
// placement inputs.
func (in placeInputs) equal(o placeInputs) bool {
	return in.seed == o.seed && slices.Equal(in.covering, o.covering) &&
		slices.EqualFunc(in.mix, o.mix, func(a, b workload.JobSpec) bool { return a.ID == b.ID && a.NumMaps == b.NumMaps })
}

// placeOp encodes one step of FuzzPlaceReuse: kind picks what changes
// before the call, arg by how much.
func placeOp(kind, arg int) byte { return byte(kind + 5*arg) }

// FuzzPlaceReuse is the differential check of placement reuse. One
// namespace places a generated sequence of mixes, reset before each call,
// on a fleet of one to eight machines (so strides 1, 2 and 3 all occur);
// each step (an ops byte: placeOp) either repeats the last inputs or
// changes one of them first: the seed, the covering set, one job's block
// count, or the job list, which may also be given a repeated job ID for
// one call, which Place rejects. After every call, the error, every job's
// file window and every machine's BlocksHeld must equal those of a new
// namespace given the same inputs, and Reused must report a restored
// placement exactly when the inputs equal those of the last call that
// succeeded with none failing since.
func FuzzPlaceReuse(f *testing.F) {
	every := []byte{
		placeOp(0, 0), placeOp(0, 0), // first placement, then a repeat
		placeOp(1, 2), placeOp(0, 0), placeOp(1, 1), // seed
		placeOp(2, 0), placeOp(0, 0), placeOp(2, 0), // covering set
		placeOp(3, 1), placeOp(0, 0), // block count
		placeOp(4, 0), placeOp(0, 0), placeOp(4, 1), placeOp(0, 0), // job list
		placeOp(4, 2), placeOp(0, 0), placeOp(4, 2), placeOp(4, 2), // rejected mixes
	}
	for _, machines := range []uint8{0, 1, 2, 4} {
		f.Add(machines, every)
	}
	f.Fuzz(func(t *testing.T, machines uint8, ops []byte) {
		n := 1 + int(machines)%8
		c := testCluster(n)
		in := placeInputs{seed: 1, mix: []workload.JobSpec{job(0, 3), job(1, 5)}}
		ns := NewNamespace(c, 0)
		var last *placeInputs // the inputs of the last successful Place, nil after a failure
		for step, op := range ops[:min(len(ops), 64)] {
			arg := int(op) / 5
			switch op % 5 {
			case 1:
				in.seed = int64(arg % 3)
			case 2:
				if len(in.covering) == 0 {
					in.covering = []int{arg % n}
				} else {
					in.covering = nil
				}
			case 3:
				in.mix = slices.Clone(in.mix)
				in.mix[arg%len(in.mix)].NumMaps = 1 + arg%5
			case 4:
				switch arg % 3 {
				case 0:
					in.mix = append(slices.Clone(in.mix), job(in.mix[len(in.mix)-1].ID+1, 1+arg%4))
				case 1:
					in.mix = in.mix[:max(1, len(in.mix)-1)]
				}
			}
			call := in
			if op%5 == 4 && arg%3 == 2 {
				call.mix = append(slices.Clone(in.mix), in.mix[0])
			}

			err := call.apply(ns)
			fresh := NewNamespace(c, 0)
			want := call.apply(fresh)
			if (err != nil) != (want != nil) {
				t.Fatalf("step %d: Place error %v, a new namespace's %v", step, err, want)
			}
			if reuse := err == nil && last != nil && call.equal(*last); ns.Reused() != reuse {
				t.Fatalf("step %d: Reused() = %v, want %v", step, ns.Reused(), reuse)
			}
			for _, spec := range call.mix {
				if got, want := ns.File(spec.ID), fresh.File(spec.ID); !slices.Equal(got, want) {
					t.Fatalf("step %d: job %d placed on %v, a new namespace placed it on %v", step, spec.ID, got, want)
				}
			}
			for id := 0; id < n; id++ {
				if got, want := ns.BlocksHeld(id), fresh.BlocksHeld(id); got != want {
					t.Fatalf("step %d: machine %d holds %d replicas, in a new namespace %d", step, id, got, want)
				}
			}
			if err != nil {
				last = nil
			} else {
				last = &call
			}
		}
	})
}
