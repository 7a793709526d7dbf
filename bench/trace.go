package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// Benchmark-side spans, recorded only in the traced run and only from this
// package: the program under test carries no tracing of its own yet, so a
// span here brackets one call into it (or the emulated compute).
type spanName uint8

const (
	spanStep spanName = iota
	spanCompute
	spanPushEnqueue
	spanPushWait
	spanPullEnqueue
	spanPullWait
	spanROPull
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"step", "compute", "SPushAsync", "push.Wait", "SPullAsync", "pull.Wait", "ROClient.Pull",
}

// span is one timed interval; times are ns since the run's epoch. Spans of
// one step share Step, and Parent is the ID of the span that caused this
// one (0 for a root).
type span struct {
	Name   spanName
	ID     uint32
	Parent uint32
	Step   uint32
	Start  int64
	End    int64
}

// ringSpans is how many of a goroutine's most recent spans are kept for
// the trace file; aggregates cover every span.
const ringSpans = 1 << 13

// spanRing is one goroutine's span recorder: a preallocated ring (no
// locks, no allocation while measuring) plus per-name duration histograms.
type spanRing struct {
	actor  string
	buf    []span
	next   int
	nextID uint32
	agg    [numSpanNames]hist
}

func newSpanRing(actor string) *spanRing {
	return &spanRing{actor: actor, buf: make([]span, ringSpans)}
}

func (r *spanRing) newID() uint32 {
	r.nextID++
	return r.nextID
}

func (r *spanRing) put(s span) {
	r.agg[s.Name].add(s.End - s.Start)
	r.buf[r.next%ringSpans] = s
	r.next++
}

// putStep records a step span and the child spans it caused.
func (r *spanRing) putStep(step span, children []span) {
	for i := range children {
		children[i].ID = r.newID()
		children[i].Parent = step.ID
		children[i].Step = step.Step
		r.put(children[i])
	}
	r.put(step)
}

type traceSpanJSON struct {
	Actor   string `json:"actor"`
	Name    string `json:"name"`
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"`
	Step    uint32 `json:"step"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace dumps every ring's retained spans as one JSON array.
func writeTrace(path string, rings []*spanRing) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_, _ = w.WriteString("[\n")
	first := true
	for _, r := range rings {
		for i := max(0, r.next-ringSpans); i < r.next; i++ {
			s := r.buf[i%ringSpans]
			if !first {
				_, _ = w.WriteString(",")
			}
			first = false
			if err := enc.Encode(traceSpanJSON{r.actor, spanNames[s.Name], s.ID, s.Parent, s.Step, s.Start, s.End}); err != nil {
				f.Close()
				return fmt.Errorf("write trace: %w", err)
			}
		}
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
