// Package fixture seeds segcheck's golden test: out-of-package Segment
// calls on a kvstore.Shard leak live mutable slices; the copying and
// snapshot APIs are the clean idioms.
package fixture

import (
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/transport"
)

// Holding Segment's return value outside kvstore aliases storage the
// apply path mutates under stripe locks the caller does not hold.
func leak(s *kvstore.Shard) []float64 {
	seg, _ := s.Segment(0) // want "Segment aliases live stripe storage outside kvstore"
	return seg
}

// Even an immediately discarded call is flagged: the slice escaped the
// lock the moment Segment returned it.
func peek(s *kvstore.Shard) float64 {
	seg, err := s.Segment(1) // want "Segment aliases live stripe storage outside kvstore"
	if err != nil {
		return 0
	}
	return seg[0]
}

// Clean: ReadInto copies under the stripe lock.
func cleanCopy(s *kvstore.Shard, dst []float64) {
	_, _ = s.ReadInto(0, dst)
}

// Clean: GatherShard copies, stripe by stripe.
func cleanGather(s *kvstore.Shard, keys []int) {
	_, _ = s.GatherShard(nil, nil)
}

// Clean: published snapshots are immutable — reading them lock-free is
// the read tier's whole point.
func cleanSnapshot(s *kvstore.Shard) []float64 {
	sn := s.ROSnapshot()
	if sn == nil {
		return nil
	}
	if v, ok := sn.Get(0); ok {
		return v
	}
	return sn.Flat()
}

// Clean: the one sanctioned LiveSegments borrow — the result becomes the
// Segs of a message the same function hands to SendOwned, which reads
// them before it returns.
func lendToSendOwned(s *kvstore.Shard, ep transport.Endpoint, keys []keyrange.Key) error {
	m := transport.NewMessage()
	segs, err := s.LiveSegments(m.Segs[:0], keys)
	if err != nil {
		transport.Release(m)
		return err
	}
	m.Segs = segs
	return transport.SendOwned(ep, m)
}

// Keeping the live segments past the call is the race segcheck exists
// to stop.
func keepLive(s *kvstore.Shard, keys []keyrange.Key) [][]float64 {
	segs, _ := s.LiveSegments(nil, keys) // want "LiveSegments result must become the Segs of a message passed to transport.SendOwned"
	return segs
}

// An unrelated type's Segment method is not segcheck's business.
type ring struct{ buf []float64 }

func (r *ring) Segment(i int) []float64 { return r.buf[i:] }

func cleanOther(r *ring) []float64 { return r.Segment(0) }
