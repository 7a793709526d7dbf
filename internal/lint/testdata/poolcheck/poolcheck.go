// Package fixture seeds poolcheck's golden test: each function is one
// shape of the message-pool ownership discipline, with // want comments
// marking the expected diagnostics. Functions without want comments are
// false-positive regressions — clean idioms the analyzer must not flag.
package fixture

import (
	"github.com/fluentps/fluentps/internal/transport"
)

var ep transport.Endpoint

func leakNew() {
	m := transport.NewMessage() // want "pooled message "m" from transport.NewMessage is never released"
	m.Seq = 7
}

// The sized constructor is a NewMessage like any other: same debt.
func leakSized() {
	m := transport.NewSizedMessage(16) // want "pooled message "m" from transport.NewMessage is never released"
	m.Vals = append(m.Vals[:0], 1, 2)
}

// sizedSendOwned pays it. No diagnostic.
func sizedSendOwned() {
	m := transport.NewSizedMessage(2)
	m.Vals = append(m.Vals[:0], 1, 2)
	_ = transport.SendOwned(ep, m)
}

func leakRecv() {
	m, err := ep.Recv() // want "received message "m" is never released"
	if err != nil {
		return
	}
	_ = m.Seq
}

func useAfterRelease() {
	m := transport.NewMessage()
	transport.Release(m)
	m.Seq = 9 // want "use of message "m" after transport.Release released it"
}

func useAfterSendOwned() {
	m := transport.NewMessage()
	_ = transport.SendOwned(ep, m)
	_ = m.Seq // want "use of message "m" after transport.SendOwned released it"
}

func doubleRelease() {
	m := transport.NewMessage()
	transport.Release(m)
	transport.Release(m) // want "message "m" released twice"
}

func wrongReleaseOnReceived() {
	m, _ := ep.Recv()    // want "received message "m" is never released"
	transport.Release(m) // want "transport.Release is a no-op on received message "m""
}

func wrongReleaseReceivedOnNew() {
	m := transport.NewMessage()  // want "pooled message "m" from transport.NewMessage is never released"
	transport.ReleaseReceived(m) // want "transport.ReleaseReceived is a no-op on creator-owned message "m""
}

func sendRetainedKeepsOwnership() {
	m := transport.NewMessage() // want "pooled message "m" from transport.NewMessage is never released"
	_ = transport.SendRetained(ep, m)
}

// sendRetainedThenRelease keeps the discipline: a retained send is
// followed by an explicit release. No diagnostic.
func sendRetainedThenRelease() {
	m := transport.NewMessage()
	_ = transport.SendRetained(ep, m)
	transport.Release(m)
}

// releasedOnEveryBranch consumes the message on both arms. No diagnostic.
func releasedOnEveryBranch(cond bool) {
	m := transport.NewMessage()
	if cond {
		transport.Release(m)
	} else {
		_ = transport.SendOwned(ep, m)
	}
}

// deferredRelease is the canonical cleanup idiom. No diagnostic.
func deferredRelease() {
	m := transport.NewMessage()
	defer transport.Release(m)
	m.Seq = 3
}

// forwardReceived moves a received pointer downstream with SendOwned:
// ownership transfers, the forwarder owes no release. No diagnostic.
func forwardReceived() error {
	m, err := ep.Recv()
	if err != nil {
		return err
	}
	return transport.SendOwned(ep, m)
}

type holder struct{ m *transport.Message }

// Escapes hand ownership to another owner; the tracker must go quiet.

func escapeToStruct(h *holder) {
	m := transport.NewMessage()
	h.m = m
}

func escapeToChannel(ch chan *transport.Message) {
	m := transport.NewMessage()
	ch <- m
}

func escapeToReturn() *transport.Message {
	m := transport.NewMessage()
	return m
}

// escapeToFuncValue: calls through function values have no summary, so
// ownership conservatively transfers. No diagnostic.
var consumeFn func(*transport.Message)

func escapeToFuncValue() {
	m := transport.NewMessage()
	consumeFn(m)
}

// The interprocedural summaries see through module-local calls: helpers
// that only read, helpers that release, and helpers that construct.

// leakThroughReadOnlyHelper: inspect only reads its parameter, so the
// caller still owes the release — passing to it no longer launders
// ownership.
func leakThroughReadOnlyHelper() {
	m := transport.NewMessage() // want "pooled message "m" from transport.NewMessage is never released"
	inspect(m)
}

func inspect(m *transport.Message) { _ = m.Seq }

// releaseViaHelper: finish releases unconditionally, which counts as the
// caller's release. No diagnostic.
func releaseViaHelper() {
	m := transport.NewMessage()
	finish(m)
}

func finish(m *transport.Message) { transport.Release(m) }

// doubleReleaseViaHelper: the helper's release plus the caller's own is
// one too many.
func doubleReleaseViaHelper() {
	m := transport.NewMessage()
	finish(m)
	transport.Release(m) // want "message "m" released twice"
}

// wrongHelperOnReceived: a creator-release helper applied to a received
// message is a silent runtime no-op — and the message still leaks.
func wrongHelperOnReceived() {
	m, _ := ep.Recv() // want "received message "m" is never released"
	finish(m)         // want "finish \(which releases it\) is a no-op on received message "m""
}

// condReleaseHelperEscapes: maybeFinish releases on only one branch, so
// the summary refuses to certify either way and ownership conservatively
// transfers. No diagnostic at the caller.
func condReleaseHelperEscapes(cond bool) {
	m := transport.NewMessage()
	maybeFinish(m, cond)
}

func maybeFinish(m *transport.Message, cond bool) {
	if cond {
		transport.Release(m)
	}
}

// buildReply always returns a fresh creator-owned message; callers
// inherit the release obligation through the summary.
func buildReply() *transport.Message {
	m := transport.NewMessage()
	m.Seq = 1
	return m
}

func leakFromConstructorHelper() {
	m := buildReply() // want "pooled message "m" from transport.NewMessage is never released"
	_ = m.Seq
}

// releaseFromConstructorHelper pairs the helper with a release. No
// diagnostic.
func releaseFromConstructorHelper() {
	m := buildReply()
	transport.Release(m)
}

// pointerCompareAfterHandoff: identity tests never dereference, so
// comparing a handed-off message is legal. No diagnostic.
func pointerCompareAfterHandoff(other *transport.Message) bool {
	m := transport.NewMessage()
	_ = transport.SendOwned(ep, m)
	return m == other
}
