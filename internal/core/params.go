// Package core implements E-Ant, the paper's contribution: an ant-colony-
// optimization task assigner that minimizes cluster energy on heterogeneous
// hardware using only the task-level energy feedback TaskTrackers report.
//
// Mapping (§III-B): each job is an ant colony, each task an ant, each
// (job, machine) pair a path carrying a pheromone value τ. Task assignment
// is probabilistic over pheromone and heuristic information (Eqs. 3, 8);
// pheromone evolves by evaporation plus energy-efficiency rewards
// (Eqs. 4, 5), with cross-job negative feedback (Eq. 6) and the two
// noise-robustness exchange strategies of §IV-D.
package core

import (
	"fmt"
	"math"
)

// Params are E-Ant's tuning knobs. DefaultParams reproduces the paper's
// configuration.
type Params struct {
	// Rho is the pheromone evaporation coefficient ρ of Eq. 4. The
	// paper's worked example uses 0.5.
	Rho float64
	// Beta is the heuristic exponent β of Eq. 8, trading energy saving
	// against data locality and job fairness. The paper's sensitivity
	// study (Fig. 12a) peaks energy saving at β ≈ 0.1. β = 0 disables
	// heuristic information entirely, including the locality priority.
	Beta float64
	// InitTau is the pheromone a new path starts with.
	InitTau float64
	// MinTau / MaxTau clamp pheromone values so probabilities never pin
	// to zero (exploration survives) nor explode.
	MinTau float64
	MaxTau float64
	// EtaMax caps the fairness heuristic η for severely starved jobs.
	EtaMax float64
	// AcceptFloor lower-bounds the probability that a machine accepts a
	// task of a colony it ranks poorly, so backlogged work always drains.
	AcceptFloor float64
	// NegativeFeedback enables the cross-colony pheromone penalty (Eq. 6).
	NegativeFeedback bool
	// NegativeScale weights the Eq. 6 penalty relative to the mean
	// competitor reward. 1.0 is the paper's plain −Δτ; smaller values
	// soften the segregation pressure.
	NegativeScale float64
	// MachineExchange averages rewards across homogeneous machines
	// (§IV-D machine-level exchange).
	MachineExchange bool
	// JobExchange averages rewards across homogeneous jobs and warm-starts
	// new colonies from same-kind colonies (§IV-D job-level exchange).
	JobExchange bool
	// Greedy replaces roulette selection with argmax — an ablation knob,
	// not part of the paper's design (which argues for randomness).
	Greedy bool
	// ColonyDraws bounds how many colonies one slot offer samples before
	// the slot idles for the heartbeat. Higher values make the
	// affinity matching under load closer to a full preference sort.
	ColonyDraws int
	// Gamma sharpens the per-task reward: Δτ uses (avgE/E)^Gamma instead
	// of the plain ratio. The scaled-down testbed compresses per-app
	// energy contrasts to 10–20 %, too soft for roulette selection to
	// segregate task types; Gamma > 1 restores selection pressure.
	Gamma float64
	// SumDeposits reproduces Eq. 4/5 literally: deposits are *sums* of
	// task rewards, so trails also track completion counts ("the higher
	// the task completion rate ... the greater the chance of updating the
	// pheromone"). The default (false) averages per-task experiences as
	// §IV-D's exchange text describes, which measures energy efficiency
	// independent of slot share. Kept as a knob for the fidelity
	// ablation.
	SumDeposits bool
}

// DefaultParams returns the paper's configuration: ρ = 0.5, β = 0.1, both
// exchange strategies and negative feedback on.
func DefaultParams() Params {
	return Params{
		Rho:              0.5,
		Beta:             0.1,
		InitTau:          1.0,
		MinTau:           0.05,
		MaxTau:           25,
		EtaMax:           10,
		AcceptFloor:      0.05,
		NegativeFeedback: true,
		NegativeScale:    0.5,
		ColonyDraws:      3,
		Gamma:            4,
		MachineExchange:  true,
		JobExchange:      true,
	}
}

// Validate reports the first problem with the parameters.
func (p Params) Validate() error {
	for _, x := range [...]float64{p.Rho, p.Beta, p.InitTau, p.MinTau, p.MaxTau, p.EtaMax, p.AcceptFloor, p.NegativeScale, p.Gamma} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: non-finite parameter %v", x)
		}
	}
	switch {
	case p.Rho < 0 || p.Rho > 1:
		return fmt.Errorf("core: rho %v outside [0,1]", p.Rho)
	case p.Beta < 0:
		return fmt.Errorf("core: beta %v negative", p.Beta)
	case p.InitTau <= 0:
		return fmt.Errorf("core: init pheromone %v must be positive", p.InitTau)
	case p.MinTau <= 0 || p.MaxTau < p.MinTau:
		return fmt.Errorf("core: pheromone bounds [%v,%v] invalid", p.MinTau, p.MaxTau)
	case p.InitTau < p.MinTau || p.InitTau > p.MaxTau:
		return fmt.Errorf("core: init pheromone %v outside bounds [%v,%v]", p.InitTau, p.MinTau, p.MaxTau)
	case p.EtaMax < 1:
		return fmt.Errorf("core: eta cap %v below 1", p.EtaMax)
	case p.AcceptFloor < 0 || p.AcceptFloor > 1:
		return fmt.Errorf("core: accept floor %v outside [0,1]", p.AcceptFloor)
	case p.NegativeFeedback && (p.NegativeScale < 0 || p.NegativeScale > 1):
		return fmt.Errorf("core: negative-feedback scale %v outside [0,1]", p.NegativeScale)
	case p.ColonyDraws <= 0:
		return fmt.Errorf("core: colony draws %d must be positive", p.ColonyDraws)
	case p.Gamma <= 0:
		return fmt.Errorf("core: gamma %v must be positive", p.Gamma)
	}
	return nil
}
