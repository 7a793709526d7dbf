package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/mathx"
	"github.com/fluentps/fluentps/internal/optimizer"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// Layer probes time one package's public functions in isolation, on the
// exact message shapes the workload puts on the wire: shard 0's push
// (keys + payload), its ack (header only), its pull request (keys) and
// pull response (keys + payload). Each probe gets the same share of the
// probe budget and reports the median of its batches.

// timeLoop runs fn for about d in batches of at least a millisecond and
// returns the median batch's ns per call.
func timeLoop(d time.Duration, fn func()) float64 {
	deadline := time.Now().Add(d)
	batch := 1
	for {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(t) >= time.Millisecond || batch >= 1<<24 {
			break
		}
		batch *= 2
	}
	var per []float64
	for len(per) < 3 || time.Now().Before(deadline) {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t))/float64(batch))
	}
	return median(per)
}

// timeEach is timeLoop for calls that need untimed preparation: prep runs
// before every timed call of fn.
func timeEach(d time.Duration, prep, fn func()) float64 {
	deadline := time.Now().Add(d)
	var per []float64
	for len(per) < 3 || time.Now().Before(deadline) {
		prep()
		t := time.Now()
		fn()
		per = append(per, float64(time.Since(t)))
	}
	return median(per)
}

// shapes are shard 0's messages for one step.
type shapes struct {
	push, ack, pullReq, pullResp *transport.Message
}

func shapesOf(in *inputs) shapes {
	keys := in.assign.KeysOf(0)
	delta := in.w0
	if len(in.pool) > 0 {
		delta = in.pool[0]
	}
	vals := kvstore.GatherInto(nil, in.layout, delta, keys)
	w, s := transport.Worker(0), transport.Server(0)
	return shapes{
		push:     &transport.Message{Type: transport.MsgPush, From: w, To: s, Seq: 1, Keys: keys, Vals: vals},
		ack:      &transport.Message{Type: transport.MsgPushAck, From: s, To: w, Seq: 1},
		pullReq:  &transport.Message{Type: transport.MsgPull, From: w, To: s, Seq: 2, Keys: keys},
		pullResp: &transport.Message{Type: transport.MsgPullResp, From: s, To: w, Seq: 2, Keys: keys, Vals: vals},
	}
}

// wireTraffic is what one step puts on the wire, both directions, computed
// from the shapes: four messages per shard, each with a 4-byte frame
// length.
func wireTraffic(in *inputs) (msgs, bytes float64) {
	for m := 0; m < in.wl.Servers; m++ {
		keys := in.assign.KeysOf(m)
		payload := 0
		for _, k := range keys {
			payload += in.layout.KeySize(k)
		}
		with := &transport.Message{Keys: keys, Vals: make([]float64, payload)}
		msgs += 4
		bytes += float64(2*(4+transport.EncodedSize(with)) + // push, pull response
			4 + transport.EncodedSize(&transport.Message{}) + // ack
			4 + transport.EncodedSize(&transport.Message{Keys: keys})) // pull request
	}
	return msgs, bytes
}

// resolvedApply mirrors ServerConfig's zero-value resolution of
// ApplyWorkers and ApplyStripes (which the config does not export).
func resolvedApply() (workers, stripes int) {
	workers = runtime.GOMAXPROCS(0)
	if workers == 1 {
		return 1, 1
	}
	return workers, 4 * workers
}

func runProbes(in *inputs, budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	sh := shapesOf(in)
	const loops = 15
	each := budget / loops

	// transport: codec.
	var buf []byte
	out["transport.encode_ns"] = timeLoop(each, func() { buf = transport.Encode(buf[:0], sh.push) })
	var decoded transport.Message
	var decErr error
	out["transport.decode_ns"] = timeLoop(each, func() { decErr = transport.DecodeInto(&decoded, buf) })
	if decErr != nil {
		return nil, decErr
	}

	// transport: frame, endpoint and mux round trips over real loopback.
	var err error
	if out["transport.frame_rtt_us"], err = probeFrameRTT(each, sh.push); err != nil {
		return nil, err
	}
	if out["transport.tcp_rtt_ack_us"], err = probeTCPRTT(each, sh.ack); err != nil {
		return nil, err
	}
	if out["transport.tcp_rtt_payload_us"], err = probeTCPRTT(each, sh.push); err != nil {
		return nil, err
	}
	if out["transport.mux_rtt_us"], err = probeMuxRTT(each, sh.pullReq, sh.pullResp); err != nil {
		return nil, err
	}
	out["transport.msgs_per_step"], out["transport.wire_bytes_per_step"] = wireTraffic(in)

	// kvstore, on a shard striped as a default server stripes it.
	_, stripes := resolvedApply()
	keys := sh.push.Keys
	shard := kvstore.NewStripedShard(in.layout, keys, func(k keyrange.Key, seg []float64) {
		copy(seg, in.layout.Slice(in.w0, k))
	}, stripes)
	var kvErr error
	out["kvstore.apply_us"] = timeLoop(each, func() {
		if err := shard.ApplyGradPayload(keys, sh.push.Vals, 0.5); err != nil {
			kvErr = err
		}
	}) / 1e3
	// One wave as the apply engine stages it for two workers: per stripe,
	// every key with two coalesced gradients.
	wave := make([][]kvstore.BatchItem, shard.NumStripes())
	off := 0
	for _, k := range keys {
		g := sh.push.Vals[off : off+in.layout.KeySize(k)]
		off += len(g)
		st := shard.StripeOf(k)
		wave[st] = append(wave[st], kvstore.BatchItem{Key: k, Grads: [][]float64{g, g}})
	}
	out["kvstore.apply_batch_us"] = timeLoop(each, func() {
		for st, items := range wave {
			if len(items) == 0 {
				continue
			}
			if err := shard.ApplyBatch(st, 0.5, items); err != nil {
				kvErr = err
			}
		}
	}) / 1e3
	var gathered []float64
	out["kvstore.gather_us"] = timeLoop(each, func() {
		var err error
		if gathered, err = shard.GatherShard(gathered[:0], keys); err != nil {
			kvErr = err
		}
	}) / 1e3
	vt := 0
	out["kvstore.snapshot_publish_us"] = timeEach(each, func() {
		// Dirty every stripe, as a wave that touched the whole shard does.
		if err := shard.ApplyGradPayload(keys, sh.push.Vals, 0.5); err != nil {
			kvErr = err
		}
	}, func() {
		vt++
		shard.PublishSnapshot(vt)
	}) / 1e3
	snap := shard.PublishSnapshot(vt + 1)
	flatLen := len(snap.Flat())
	out["kvstore.snapshot_flat_ns"] = timeLoop(each, func() { flatLen += len(snap.Flat()) })
	if kvErr != nil {
		return nil, kvErr
	}
	if flatLen == 0 {
		return nil, fmt.Errorf("probe: empty snapshot")
	}

	// syncmodel.
	out["syncmodel.round_ns"], out["syncmodel.dpr_share"], out["syncmodel.vtrain_per_s"] = probeSyncModel(in, each)

	// mathx: the fused two-gradient apply on a 4096-wide (32 KiB) segment.
	a, b, y := make([]float64, 4096), make([]float64, 4096), make([]float64, 4096)
	rng := rand.New(rand.NewSource(in.seed))
	for i := range a {
		a[i], b[i] = dyadic(rng), dyadic(rng)
	}
	pair := [][]float64{a, b}
	out["mathx.axpy_batch_ns_per_kib"] = timeLoop(each, func() { mathx.AxpyBatch(0.5, pair, y) }) / 32

	// mlmodel and optimizer, where the workload computes.
	if in.wl.Softmax {
		params := append([]float64(nil), in.w0...)
		grad, delta := make([]float64, len(params)), make([]float64, len(params))
		x, lbl := in.train.Batch(mathx.RNG(in.seed, "bench.probe.batch"), batchSize)
		out["mlmodel.gradient_us"] = timeLoop(each, func() { in.model.Gradient(params, x, lbl, grad) }) / 1e3
		sgd := optimizer.SGD{LR: learningRate}
		out["optimizer.delta_ns"] = timeLoop(each, func() { sgd.Delta(params, grad, delta) })
	}

	out["keyrange.imbalance"] = in.assign.Imbalance(in.layout)
	return out, nil
}

// probeFrameRTT echoes msg over a raw loopback connection pair through
// WriteFrame/ReadFrame, buffered as TCPEndpoint buffers them.
func probeFrameRTT(d time.Duration, msg *transport.Message) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer conn.Close()
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		for {
			m, err := transport.ReadFrame(r)
			if err != nil {
				echoErr <- nil // the client hung up
				return
			}
			err = transport.WriteFrame(w, m)
			transport.ReleaseReceived(m)
			if err == nil {
				err = w.Flush()
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	var rtErr error
	ns := timeLoop(d, func() {
		if err := transport.WriteFrame(w, msg); err != nil {
			rtErr = err
			return
		}
		if err := w.Flush(); err != nil {
			rtErr = err
			return
		}
		m, err := transport.ReadFrame(r)
		if err != nil {
			rtErr = err
			return
		}
		transport.ReleaseReceived(m)
	})
	conn.Close()
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return ns / 1e3, rtErr
}

// probeTCPRTT echoes msg between two TCPEndpoints: Send, Recv, Send back,
// Recv.
func probeTCPRTT(d time.Duration, msg *transport.Message) (float64, error) {
	wid, sid := transport.Worker(0), transport.Server(0)
	a, err := transport.ListenTCP(wid, "127.0.0.1:0", nil)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := transport.ListenTCP(sid, "127.0.0.1:0", nil)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	a.SetPeer(sid, b.Addr())
	b.SetPeer(wid, a.Addr())
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			reply := transport.Message{Type: m.Type, To: m.From, Seq: m.Seq, Keys: m.Keys, Vals: m.Vals}
			_ = b.Send(&reply) // TCP copies; a failure shows as the prober's Recv error
			transport.ReleaseReceived(m)
		}
	}()
	out := transport.Message{Type: msg.Type, To: sid, Seq: msg.Seq, Keys: msg.Keys, Vals: msg.Vals}
	var rtErr error
	ns := timeLoop(d, func() {
		if err := a.Send(&out); err != nil {
			rtErr = err
			return
		}
		m, err := a.Recv()
		if err != nil {
			rtErr = err
			return
		}
		transport.ReleaseReceived(m)
	})
	b.Close()
	<-echoDone
	return ns / 1e3, rtErr
}

// probeMuxRTT sends req on a mux stream and waits for resp from the
// accepting side.
func probeMuxRTT(d time.Duration, req, resp *transport.Message) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		sess := transport.NewMuxServer(conn, transport.MuxConfig{})
		defer sess.Close()
		stream, err := sess.AcceptStream()
		if err != nil {
			return
		}
		for {
			m, err := stream.Recv()
			if err != nil {
				return
			}
			transport.ReleaseReceived(m)
			if stream.Send(resp) != nil {
				return
			}
		}
	}()
	sess, err := transport.DialMux(ln.Addr().String(), transport.MuxConfig{})
	if err != nil {
		return 0, err
	}
	stream, err := sess.OpenStream()
	if err != nil {
		sess.Close()
		return 0, err
	}
	var rtErr error
	ns := timeLoop(d, func() {
		if err := stream.Send(req); err != nil {
			rtErr = err
			return
		}
		m, err := stream.Recv()
		if err != nil {
			rtErr = err
			return
		}
		transport.ReleaseReceived(m)
	})
	sess.Close()
	<-serveDone
	return ns / 1e3, rtErr
}

// probeSyncModel drives one Controller under the workload's model and
// drain policy with the workload's worker count, on a virtual clock where
// worker 0 computes stragglerFactor times slower when the workload has a
// straggler: the worker whose turn is next pushes, then pulls, and sits
// out while its pull is buffered. It returns wall ns per closed round,
// the share of pulls that were delayed, and V_train advances per wall
// second.
func probeSyncModel(in *inputs, d time.Duration) (roundNs, dprShare, vtrainPerS float64) {
	n := in.wl.Workers
	ctrl := syncmodel.New(n, in.wl.Model(), in.wl.Drain, rand.New(rand.NewSource(in.seed)))
	cost := make([]int64, n)
	for w := range cost {
		cost[w] = 1
	}
	if in.wl.Softmax {
		cost[0] = stragglerFactor
	}
	next := make([]int64, n) // virtual time each worker is due
	progress := make([]int, n)
	blocked := make([]bool, n)
	start := time.Now()
	for rounds := 0; rounds&1023 != 0 || time.Since(start) < d; rounds++ {
		w := -1
		for i := range next {
			if !blocked[i] && (w < 0 || next[i] < next[w]) {
				w = i
			}
		}
		if w < 0 {
			break // every worker delayed: only a model that can deadlock gets here
		}
		_, released := ctrl.OnPush(w, progress[w])
		for _, p := range released {
			blocked[p.Worker] = false
			next[p.Worker] = next[w] + cost[p.Worker]
			progress[p.Worker]++
		}
		if ctrl.OnPull(w, progress[w], nil) {
			next[w] += cost[w]
			progress[w]++
		} else {
			blocked[w] = true
		}
	}
	wall := time.Since(start)
	st := ctrl.Stats()
	if st.Advances > 0 {
		roundNs = float64(wall) / float64(st.Advances)
	}
	if st.Pulls > 0 {
		dprShare = float64(st.DPRs) / float64(st.Pulls)
	}
	return roundNs, dprShare, float64(st.Advances) / wall.Seconds()
}
