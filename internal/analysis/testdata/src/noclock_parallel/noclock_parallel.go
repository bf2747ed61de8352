//eantlint:path eant/internal/parallel

// Fixture: the worker pool is checked like every other internal package;
// it needs nothing from the wall clock, so a read there fires.
package noclockparallel

import "time"

func heartbeat() time.Time {
	return time.Now() // want `wall-clock call time.Now in simulation package eant/internal/parallel`
}
