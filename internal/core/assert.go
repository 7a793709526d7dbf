//go:build fluentdebug

// Runtime assertion layer for the synchronization invariants fluentvet
// cannot see statically. Built only under -tags fluentdebug (make
// race-debug); the release build compiles the no-op twins in
// assert_off.go, so the hot path carries no checks.
package core

import (
	"fmt"

	"github.com/fluentps/fluentps/internal/syncmodel"
)

// debugAssertions gates assertion-only bookkeeping at compile time.
const debugAssertions = true

func assertf(cond bool, format string, args ...any) {
	if !cond {
		panic("fluentdebug: invariant violated: " + fmt.Sprintf(format, args...))
	}
}

// assertVTrainMonotonic checks that the shard's overall training progress
// never goes backwards: V_train is a count of fully closed rounds, and
// every code path (pushes, SetCond model swaps, view changes) may only grow
// it.
func (s *Server) assertVTrainMonotonic() {
	v := s.ctrl.VTrain()
	assertf(v >= s.debugLastVTrain,
		"server %d: V_train went backwards: %d -> %d", s.cfg.Rank, s.debugLastVTrain, v)
	s.debugLastVTrain = v
}

// assertSSPStaleness checks the SSP bound on every answered pull: under
// SSP(s), a pull answered at progress p must satisfy p - V_train < s (or
// be a fresh read, p < V_train, as drained DPRs always are).
func (s *Server) assertSSPStaleness(progress int) {
	spec, ok := syncmodel.SpecOf(s.ctrl.Model())
	if !ok || spec.Kind != syncmodel.KindSSP {
		return
	}
	gap := progress - s.ctrl.VTrain()
	assertf(gap < spec.S || gap < 0,
		"server %d: SSP(s=%d) answered a pull at staleness gap %d (progress %d, V_train %d)",
		s.cfg.Rank, spec.S, gap, progress, s.ctrl.VTrain())
}

// assertDrainImpliesAdvance checks the Algorithm 1 coupling between the
// DPR buffer and the push condition: buffered pulls drain from OnPush
// only when the push condition fired and V_train advanced.
func (s *Server) assertDrainImpliesAdvance(released, advancesBefore int) {
	if released == 0 {
		return
	}
	adv := s.ctrl.Stats().Advances
	assertf(adv > advancesBefore,
		"server %d: %d DPRs drained from a push but V_train never advanced (push condition did not fire)",
		s.cfg.Rank, released)
}

// debugAdvances snapshots the controller's advance counter for
// assertDrainImpliesAdvance.
func (s *Server) debugAdvances() int { return s.ctrl.Stats().Advances }
