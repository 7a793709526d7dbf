package kvstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/fluentps/fluentps/internal/keyrange"
)

// Shard checkpointing: a compact binary snapshot of a shard's keys,
// segments and update counters, so a long-running parameter server can be
// stopped and resumed (or its state shipped to a replacement node). The
// format is self-describing enough to be validated against the layout on
// load.
//
// Layout (little-endian):
//
//	magic    uint32 ("FPSC")
//	version  uint32
//	numKeys  uint32
//	per key: key uint32, updates uint64, size uint32, size × float64

const (
	checkpointMagic   = 0x46505343 // "FPSC"
	checkpointVersion = 1
)

// Save writes the shard snapshot to w.
func (s *Shard) Save(w io.Writer) error {
	return s.SaveKeys(w, s.keys)
}

// SaveKeys writes a checkpoint stream holding only the given keys (all of
// which the shard must own). It is the same self-describing format Save
// emits, which makes it the single serialization for every way key state
// leaves a server: full checkpoints, live key transfer during a view
// change, and replica snapshots — one format, one validator, and the
// per-key update counters always travel with the values.
func (s *Shard) SaveKeys(w io.Writer, keys []keyrange.Key) error {
	bw := bufio.NewWriter(w)
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := bw.Write(scratch[:8])
		return err
	}
	if err := writeU32(checkpointMagic); err != nil {
		return fmt.Errorf("kvstore: checkpoint: %w", err)
	}
	if err := writeU32(checkpointVersion); err != nil {
		return err
	}
	if err := writeU32(uint32(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := writeU32(uint32(k)); err != nil {
			return err
		}
		sp := s.stripeFor(k)
		seg, ok := sp.data[k]
		if !ok {
			return unknownKey("save-keys", k)
		}
		if err := writeU64(sp.updates[k]); err != nil {
			return err
		}
		if err := writeU32(uint32(len(seg))); err != nil {
			return err
		}
		for _, v := range seg {
			if err := writeU64(math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadShard reads a snapshot written by Save and validates it against the
// layout (every key must exist and have the recorded size). The result is
// single-striped; use LoadStripedShard when the shard will serve a
// parallel apply engine.
func LoadShard(r io.Reader, layout *keyrange.Layout) (*Shard, error) {
	return LoadStripedShard(r, layout, 1)
}

// LoadStripedShard is LoadShard with an explicit stripe count (rounded up
// to a power of two, clamped to [1, MaxStripes]); the checkpoint format is
// stripe-agnostic, so any snapshot restores into any striping.
func LoadStripedShard(r io.Reader, layout *keyrange.Layout, stripes int) (*Shard, error) {
	br := bufio.NewReader(r)
	var scratch [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	magic, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("kvstore: checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("kvstore: bad checkpoint magic %#x", magic)
	}
	version, err := readU32()
	if err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("kvstore: unsupported checkpoint version %d", version)
	}
	numKeys, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(numKeys) > layout.NumKeys() {
		return nil, fmt.Errorf("kvstore: checkpoint has %d keys, layout only %d", numKeys, layout.NumKeys())
	}
	s := newEmptyShard(layout, stripes)
	for i := uint32(0); i < numKeys; i++ {
		rawKey, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("kvstore: checkpoint key %d: %w", i, err)
		}
		k := keyrange.Key(rawKey)
		if int(rawKey) >= layout.NumKeys() {
			return nil, fmt.Errorf("kvstore: checkpoint key %d outside layout", rawKey)
		}
		sp := s.stripeFor(k)
		if _, dup := sp.data[k]; dup {
			return nil, fmt.Errorf("kvstore: checkpoint repeats key %d", rawKey)
		}
		updates, err := readU64()
		if err != nil {
			return nil, err
		}
		size, err := readU32()
		if err != nil {
			return nil, err
		}
		if int(size) != layout.KeySize(k) {
			return nil, fmt.Errorf("kvstore: checkpoint key %d has size %d, layout says %d",
				rawKey, size, layout.KeySize(k))
		}
		seg := make([]float64, size)
		for j := range seg {
			bits, err := readU64()
			if err != nil {
				return nil, fmt.Errorf("kvstore: checkpoint key %d values: %w", rawKey, err)
			}
			seg[j] = math.Float64frombits(bits)
		}
		sp.data[k] = seg
		sp.updates[k] = updates
		s.keys = append(s.keys, k)
	}
	sortKeys(s.keys)
	return s, nil
}

// Absorb merges a checkpoint stream (Save/SaveKeys output) into a live
// shard, taking ownership of every key in the stream — the arrival side
// of live key transfer during a view change. Values AND update
// counters are adopted (a raw-segment hand-off used to silently zero the
// counters of migrated keys). Keys already owned or outside the layout
// fail the merge; earlier keys of the stream stay absorbed, so callers
// treat any error as fatal for the transfer. Structural: requires
// quiescence, like AddKey. Returns the absorbed keys in stream order.
func (s *Shard) Absorb(r io.Reader) ([]keyrange.Key, error) {
	br := bufio.NewReader(r)
	var scratch [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	magic, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("kvstore: absorb header: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("kvstore: absorb: bad magic %#x", magic)
	}
	version, err := readU32()
	if err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("kvstore: absorb: unsupported version %d", version)
	}
	numKeys, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(numKeys) > s.layout.NumKeys() {
		return nil, fmt.Errorf("kvstore: absorb: stream has %d keys, layout only %d", numKeys, s.layout.NumKeys())
	}
	absorbed := make([]keyrange.Key, 0, numKeys)
	seg := []float64(nil)
	for i := uint32(0); i < numKeys; i++ {
		rawKey, err := readU32()
		if err != nil {
			return absorbed, fmt.Errorf("kvstore: absorb key %d: %w", i, err)
		}
		k := keyrange.Key(rawKey)
		if int(rawKey) >= s.layout.NumKeys() {
			return absorbed, fmt.Errorf("kvstore: absorb: key %d outside layout", rawKey)
		}
		updates, err := readU64()
		if err != nil {
			return absorbed, err
		}
		size, err := readU32()
		if err != nil {
			return absorbed, err
		}
		if int(size) != s.layout.KeySize(k) {
			return absorbed, fmt.Errorf("kvstore: absorb: key %d has size %d, layout says %d",
				rawKey, size, s.layout.KeySize(k))
		}
		seg = seg[:0]
		for j := uint32(0); j < size; j++ {
			bits, err := readU64()
			if err != nil {
				return absorbed, fmt.Errorf("kvstore: absorb key %d values: %w", rawKey, err)
			}
			seg = append(seg, math.Float64frombits(bits))
		}
		if err := s.AddKey(k, seg); err != nil {
			return absorbed, err
		}
		s.stripeFor(k).updates[k] = updates
		absorbed = append(absorbed, k)
	}
	return absorbed, nil
}
