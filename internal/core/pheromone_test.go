package core

import (
	"math"
	"testing"
	"testing/quick"

	"eant/internal/mapreduce"
	"eant/internal/workload"
)

func mapColony(jobID int, app workload.App) ColonyKey {
	return ColonyKey{JobID: jobID, App: app, Kind: mapreduce.MapTask}
}

// keyed returns the colony of key, creating it on first touch: tests
// address a colony by its key and give job key.JobID the job slot
// key.JobID, where E-Ant addresses it by its job's slot in the run.
func keyed(mx *Matrix, key ColonyKey) *colony { return mx.colonyAt(key.JobID, key) }

// retireJob retires the colonies of job jobID and keeps every other.
func retireJob(mx *Matrix, jobID int) {
	live := make([]bool, len(mx.bySlot))
	for _, c := range mx.cols {
		live[c.slot>>1] = c.key.JobID != jobID
	}
	mx.retire(live)
}

func noExchange() Params {
	p := DefaultParams()
	p.MachineExchange = false
	p.JobExchange = false
	p.NegativeFeedback = false
	return p
}

// paperForm returns params running the literal Eq. 4/5 sum deposits.
func paperForm() Params {
	p := noExchange()
	p.SumDeposits = true
	p.Gamma = 1
	return p
}

func mustMatrix(t *testing.T, machines int, p Params) *Matrix {
	t.Helper()
	mx, err := NewMatrix(machines, nil, p)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	return mx
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.Rho = -0.1 },
		func(p *Params) { p.Rho = 1.1 },
		func(p *Params) { p.Beta = -1 },
		func(p *Params) { p.InitTau = 0 },
		func(p *Params) { p.MinTau = 0 },
		func(p *Params) { p.MaxTau = 0.01 },
		func(p *Params) { p.InitTau = 100 },
		func(p *Params) { p.EtaMax = 0.5 },
		func(p *Params) { p.AcceptFloor = 2 },
		func(p *Params) { p.Rho = math.NaN() },
		func(p *Params) { p.Beta = math.Inf(1) },
		func(p *Params) { p.InitTau = math.NaN() },
		func(p *Params) { p.MinTau = math.NaN() },
		func(p *Params) { p.MaxTau = math.Inf(1) },
		func(p *Params) { p.EtaMax = math.Inf(1) },
		func(p *Params) { p.AcceptFloor = math.NaN() },
		func(p *Params) { p.NegativeScale = math.NaN() },
		func(p *Params) { p.Gamma = math.NaN() },
		func(p *Params) { p.Gamma = math.Inf(1) },
	}
	for i, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, nil, DefaultParams()); err == nil {
		t.Error("zero machines accepted")
	}
	bad := DefaultParams()
	bad.Rho = 2
	if _, err := NewMatrix(3, nil, bad); err == nil {
		t.Error("invalid params accepted")
	}
	for _, groups := range [][][]int{
		{{0, 1}, {1, 2}}, // overlapping groups
		{{0, 0}},         // an ID listed twice
		{{0, 3}},         // out of range
		{{-1}},           // negative
	} {
		if _, err := NewMatrix(3, groups, DefaultParams()); err == nil {
			t.Errorf("groups %v accepted", groups)
		}
	}
	if _, err := NewMatrix(3, [][]int{{2, 0}, {}, {1}}, DefaultParams()); err != nil {
		t.Errorf("disjoint groups rejected: %v", err)
	}
}

func TestInitialPheromoneUniform(t *testing.T) {
	mx := mustMatrix(t, 3, noExchange())
	k := mapColony(1, workload.Wordcount)
	for m := 0; m < 3; m++ {
		if got := keyed(mx, k).row[m]; got != 1.0 {
			t.Errorf("initial tau[%d] = %v, want 1", m, got)
		}
	}
	if len(mx.cols) != 1 {
		t.Errorf("%d colonies, want 1", len(mx.cols))
	}
}

func TestUpdateRewardsEnergyEfficientMachine(t *testing.T) {
	// Paper's worked example (§IV-C2): machine A does two 2 KJ tasks,
	// machine B one 3 KJ task; ρ = 0.5. A's trail must rise above B's.
	// Uses the literal Eq. 4/5 sum-form deposits the example computes.
	mx := mustMatrix(t, 2, paperForm())
	k := mapColony(1, workload.Wordcount)
	mx.feedback(keyed(mx, k), 0, 2000)
	mx.feedback(keyed(mx, k), 0, 2000)
	mx.feedback(keyed(mx, k), 1, 3000)
	mx.Update(nil)

	tauA, tauB := keyed(mx, k).row[0], keyed(mx, k).row[1]
	if tauA <= tauB {
		t.Fatalf("tauA = %v not above tauB = %v", tauA, tauB)
	}
	// Before mean-normalization the paper's arithmetic gives 1.66 vs
	// 0.88, a ratio of ≈ 1.89; normalization preserves the ratio.
	ratio := tauA / tauB
	if math.Abs(ratio-1.66/0.88) > 0.02 {
		t.Errorf("tau ratio = %.3f, want ≈ %.3f", ratio, 1.66/0.88)
	}
}

func TestUpdateEvaporatesIdlePaths(t *testing.T) {
	p := noExchange()
	mx := mustMatrix(t, 2, p)
	k := mapColony(1, workload.Grep)
	keyed(mx, k)
	// No feedback at all: trails evaporate toward MinTau but
	// normalization keeps the row mean at 1 (both machines equal).
	mx.Update(nil)
	if a, b := keyed(mx, k).row[0], keyed(mx, k).row[1]; math.Abs(a-b) > 1e-9 {
		t.Errorf("symmetric evaporation broke symmetry: %v vs %v", a, b)
	}
	// With feedback only on machine 0, machine 1 decays relative to it.
	mx.feedback(keyed(mx, k), 0, 100)
	mx.Update(nil)
	if keyed(mx, k).row[1] >= keyed(mx, k).row[0] {
		t.Error("idle path did not decay relative to rewarded path")
	}
}

func TestUpdateClampsToBounds(t *testing.T) {
	p := noExchange()
	mx := mustMatrix(t, 2, p)
	k := mapColony(1, workload.Terasort)
	// Massive asymmetric rewards drive the loser to MinTau.
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			mx.feedback(keyed(mx, k), 0, 1)
		}
		mx.feedback(keyed(mx, k), 1, 1e9)
		mx.Update(nil)
	}
	for m := 0; m < 2; m++ {
		v := keyed(mx, k).row[m]
		if v < p.MinTau-1e-12 || v > p.MaxTau+1e-12 {
			t.Errorf("tau[%d] = %v outside [%v, %v]", m, v, p.MinTau, p.MaxTau)
		}
	}
	if keyed(mx, k).row[1] != p.MinTau {
		t.Errorf("starved path = %v, want floor %v", keyed(mx, k).row[1], p.MinTau)
	}
}

func TestPheromonePositivityProperty(t *testing.T) {
	p := noExchange()
	f := func(joules []float64, machines []uint8) bool {
		mx, err := NewMatrix(4, nil, p)
		if err != nil {
			return false
		}
		k := mapColony(1, workload.Wordcount)
		n := len(joules)
		if len(machines) < n {
			n = len(machines)
		}
		for i := 0; i < n; i++ {
			mx.feedback(keyed(mx, k), int(machines[i])%4, math.Abs(joules[i]))
		}
		mx.Update(nil)
		for m := 0; m < 4; m++ {
			v := keyed(mx, k).row[m]
			if !(v >= p.MinTau-1e-12 && v <= p.MaxTau+1e-12) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMachineLevelExchangeSharesWithinGroup(t *testing.T) {
	p := noExchange()
	p.MachineExchange = true
	// Machines 0,1 are one hardware type; 2,3 another. Feedback lands
	// only on machine 0 and machine 2.
	mx, err := NewMatrix(4, [][]int{{0, 1}, {2, 3}}, p)
	if err != nil {
		t.Fatal(err)
	}
	k := mapColony(1, workload.Wordcount)
	mx.feedback(keyed(mx, k), 0, 100) // efficient
	mx.feedback(keyed(mx, k), 2, 400) // inefficient
	mx.Update(nil)

	if a, b := keyed(mx, k).row[0], keyed(mx, k).row[1]; math.Abs(a-b) > 1e-9 {
		t.Errorf("group members diverged: %v vs %v", a, b)
	}
	if c, d := keyed(mx, k).row[2], keyed(mx, k).row[3]; math.Abs(c-d) > 1e-9 {
		t.Errorf("group members diverged: %v vs %v", c, d)
	}
	if keyed(mx, k).row[1] <= keyed(mx, k).row[3] {
		t.Error("efficient group's idle member not preferred over inefficient group's")
	}
}

func TestJobLevelExchangePoolsColonies(t *testing.T) {
	p := noExchange()
	p.JobExchange = true
	mx := mustMatrix(t, 2, p)
	k1 := mapColony(1, workload.Grep)
	k2 := mapColony(2, workload.Grep)
	// Colony 1 saw machine 0 efficient; colony 2 saw machine 1
	// inefficient. Pooling gives both colonies both experiences.
	mx.feedback(keyed(mx, k1), 0, 100)
	mx.feedback(keyed(mx, k1), 1, 100)
	mx.feedback(keyed(mx, k2), 0, 100)
	mx.feedback(keyed(mx, k2), 1, 900)
	mx.Update(nil)
	if math.Abs(keyed(mx, k1).row[0]-keyed(mx, k2).row[0]) > 1e-9 {
		t.Error("job-level exchange did not equalize same-app colonies")
	}
	if keyed(mx, k1).row[0] <= keyed(mx, k1).row[1] {
		t.Error("pooled experience did not prefer the efficient machine")
	}
}

func TestJobExchangeDoesNotPoolAcrossApps(t *testing.T) {
	p := noExchange()
	p.JobExchange = true
	mx := mustMatrix(t, 2, p)
	kWC := mapColony(1, workload.Wordcount)
	kTS := mapColony(2, workload.Terasort)
	mx.feedback(keyed(mx, kWC), 0, 100)
	mx.feedback(keyed(mx, kWC), 1, 500)
	mx.feedback(keyed(mx, kTS), 0, 500)
	mx.feedback(keyed(mx, kTS), 1, 100)
	mx.Update(nil)
	if keyed(mx, kWC).row[0] <= keyed(mx, kWC).row[1] {
		t.Error("Wordcount colony polluted by Terasort feedback")
	}
	if keyed(mx, kTS).row[1] <= keyed(mx, kTS).row[0] {
		t.Error("Terasort colony polluted by Wordcount feedback")
	}
}

func TestJobExchangeWarmStartsNewColony(t *testing.T) {
	p := noExchange()
	p.JobExchange = true
	mx := mustMatrix(t, 2, p)
	k1 := mapColony(1, workload.Grep)
	mx.feedback(keyed(mx, k1), 0, 100)
	mx.feedback(keyed(mx, k1), 1, 400)
	mx.Update(nil)

	k2 := mapColony(9, workload.Grep)
	if math.Abs(keyed(mx, k2).row[0]-keyed(mx, k1).row[0]) > 1e-9 {
		t.Error("new same-app colony did not inherit trails")
	}
	// A different app starts cold.
	k3 := mapColony(10, workload.Wordcount)
	if keyed(mx, k3).row[0] != p.InitTau {
		t.Errorf("new different-app colony tau = %v, want %v", keyed(mx, k3).row[0], p.InitTau)
	}
}

func TestNegativeFeedbackSuppressesCompetitors(t *testing.T) {
	p := noExchange()
	p.NegativeFeedback = true
	p.NegativeScale = 0.5
	mx := mustMatrix(t, 2, p)
	winner := mapColony(1, workload.Wordcount)
	loser := mapColony(2, workload.Grep)
	// Winner earns strong rewards on machine 0; the loser's own feedback
	// is symmetric across both machines, so any asymmetry in its trails
	// comes from the Eq. 6 cross-colony penalty on machine 0.
	mx.feedback(keyed(mx, winner), 0, 10)
	mx.feedback(keyed(mx, winner), 0, 10)
	mx.feedback(keyed(mx, loser), 0, 100)
	mx.feedback(keyed(mx, loser), 1, 100)
	mx.Update(nil)
	if keyed(mx, loser).row[0] >= keyed(mx, loser).row[1] {
		t.Errorf("negative feedback did not suppress competitor: tau0=%v tau1=%v",
			keyed(mx, loser).row[0], keyed(mx, loser).row[1])
	}
	// The winner keeps its advantage on machine 0.
	if keyed(mx, winner).row[0] <= keyed(mx, winner).row[1] {
		t.Error("winner lost its rewarded machine")
	}
}

func TestNegativeFeedbackSparesSameAppColonies(t *testing.T) {
	// Homogeneous jobs are pooled by the job-level exchange, not rivals:
	// Eq. 6 must not apply between colonies of the same application.
	p := noExchange()
	p.NegativeFeedback = true
	p.NegativeScale = 1
	mx := mustMatrix(t, 2, p)
	a := mapColony(1, workload.Grep)
	b := mapColony(2, workload.Grep)
	mx.feedback(keyed(mx, a), 0, 10)
	mx.feedback(keyed(mx, a), 0, 10)
	mx.feedback(keyed(mx, b), 0, 100)
	mx.feedback(keyed(mx, b), 1, 100)
	mx.Update(nil)
	if keyed(mx, b).row[0] < keyed(mx, b).row[1] {
		t.Errorf("same-app colony was penalized: tau0=%v tau1=%v",
			keyed(mx, b).row[0], keyed(mx, b).row[1])
	}
}

func TestRetireDropsColonies(t *testing.T) {
	mx := mustMatrix(t, 2, noExchange())
	mx.feedback(keyed(mx, mapColony(1, workload.Grep)), 0, 5)
	mx.feedback(keyed(mx, mapColony(2, workload.Grep)), 0, 5)
	retireJob(mx, 1)
	if len(mx.cols) != 1 || mx.cols[0].key.JobID != 2 {
		t.Fatalf("%d colonies after retire, want job 2's alone", len(mx.cols))
	}
	if n := len(mx.cols[0].pending); n != 1 {
		t.Errorf("%d rewards pending after retire, want 1", n)
	}
	if mx.bySlot[2] != nil {
		t.Error("the retired colony keeps its slot-table entry")
	}
	if c := keyed(mx, mapColony(1, workload.Grep)); len(c.pending) != 0 || len(mx.cols) != 2 {
		t.Error("job 1's colony did not come back fresh")
	}
}

func TestFeedbackValidation(t *testing.T) {
	mx := mustMatrix(t, 2, noExchange())
	k := mapColony(1, workload.Grep)
	// Non-positive joules are floored, not rejected.
	mx.feedback(keyed(mx, k), 0, 0)
	mx.Update(nil)
	if v := keyed(mx, k).row[0]; math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("zero-energy feedback produced tau %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range machine accepted")
		}
	}()
	mx.feedback(keyed(mx, k), 5, 1)
}
