package core

import (
	"context"

	"github.com/fluentps/fluentps/internal/transport"
)

// recvCtx drains one message from ep, honoring ctx cancellation.
//
// transport.Endpoint.Recv is the blocking primitive and cannot carry a
// context without breaking every implementation, so control-plane APIs
// (Register, QueryStats, DistributeView, SetCondition, the scheduler loop)
// wrap it here: the Recv runs in its own goroutine and the caller waits
// on whichever of {response, ctx.Done()} fires first. On cancellation
// the in-flight Recv keeps running until the endpoint delivers or
// closes; a drain goroutine releases its late message so the pool
// ownership discipline holds even for abandoned receives.
func recvCtx(ctx context.Context, ep transport.Endpoint) (*transport.Message, error) {
	type recvResult struct {
		msg *transport.Message
		err error
	}
	done := make(chan recvResult, 1)
	go func() {
		m, err := ep.Recv()
		done <- recvResult{m, err}
	}()
	select {
	case <-ctx.Done():
		go func() {
			r := <-done
			transport.ReleaseReceived(r.msg)
		}()
		return nil, ctx.Err()
	case r := <-done:
		return r.msg, r.err
	}
}
