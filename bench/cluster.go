package main

import (
	"fmt"
	"net"
	"sync"

	"github.com/fluentps/fluentps/internal/core"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// cluster is a real loopback-TCP FluentPS cluster in this process, in the
// shape of examples/distributed: one transport.ListenTCP endpoint per
// node on an ephemeral port, core.NewServer / core.NewWorker with
// zero-value tuning fields (so defaults are what gets measured), and, when
// the workload has readers, the read tier of cmd/fluentps-server (a
// listener whose connections become mux sessions of HandleRO streams).
// There is no scheduler: it is not on the push/pull path.
type cluster struct {
	eps     []*transport.TCPEndpoint
	servers []*core.Server
	workers []*core.Worker
	srvErr  []chan error

	roLn   net.Listener
	roSess *transport.MuxSession // client side
	roWG   sync.WaitGroup

	// regs are the telemetry registries of a traced run (nil otherwise):
	// one per server, one per worker, one for both ends of the mux session.
	regs []*telemetry.Registry
}

func bootCluster(in *inputs, workers, readers int, traced bool) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	reg := func() *telemetry.Registry {
		if !traced {
			return nil
		}
		r := telemetry.New()
		c.regs = append(c.regs, r)
		return r
	}
	wl := in.wl
	book := map[transport.NodeID]string{}
	listen := func(id transport.NodeID) (*transport.TCPEndpoint, error) {
		ep, err := transport.ListenTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		book[id] = ep.Addr()
		c.eps = append(c.eps, ep)
		return ep, nil
	}
	srvEPs := make([]*transport.TCPEndpoint, wl.Servers)
	for m := range srvEPs {
		if srvEPs[m], err = listen(transport.Server(m)); err != nil {
			return nil, err
		}
	}
	wrkEPs := make([]*transport.TCPEndpoint, workers)
	for n := range wrkEPs {
		if wrkEPs[n], err = listen(transport.Worker(n)); err != nil {
			return nil, err
		}
	}
	for _, ep := range c.eps {
		for id, addr := range book {
			ep.SetPeer(id, addr)
		}
	}
	for m := 0; m < wl.Servers; m++ {
		srv, err := core.NewServer(srvEPs[m], core.ServerConfig{
			Rank:       m,
			NumWorkers: workers,
			Layout:     in.layout,
			Assignment: in.assign,
			Model:      wl.Model(),
			Drain:      wl.Drain,
			Init: func(k keyrange.Key, seg []float64) {
				copy(seg, in.layout.Slice(in.w0, k))
			},
			Seed:      in.seed,
			Telemetry: reg(),
		})
		if err != nil {
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Run() }()
		c.servers = append(c.servers, srv)
		c.srvErr = append(c.srvErr, done)
	}
	for n := 0; n < workers; n++ {
		w, err := core.NewWorker(wrkEPs[n], core.WorkerConfig{
			Rank:       n,
			Layout:     in.layout,
			Assignment: in.assign,
			Telemetry:  reg(),
		})
		if err != nil {
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	if readers > 0 {
		if err := c.startReadTier(reg()); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// startReadTier serves server 0's snapshots over mux sessions and dials
// the one client session the readers share.
func (c *cluster) startReadTier(reg *telemetry.Registry) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("read tier listen: %w", err)
	}
	c.roLn = ln
	srv := c.servers[0]
	c.roWG.Add(1)
	go func() {
		defer c.roWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			sess := transport.NewMuxServer(conn, transport.MuxConfig{Telemetry: reg})
			c.roWG.Add(1)
			go func() {
				defer c.roWG.Done()
				defer sess.Close()
				for {
					stream, err := sess.AcceptStream()
					if err != nil {
						return
					}
					c.roWG.Add(1)
					go func() {
						defer c.roWG.Done()
						_ = srv.HandleRO(stream)
					}()
				}
			}()
		}
	}()
	c.roSess, err = transport.DialMux(ln.Addr().String(), transport.MuxConfig{Telemetry: reg})
	return err
}

// shutdown stops the cluster cleanly: servers get MsgShutdown and Run must
// return nil, then every socket closes and every goroutine the benchmark
// started is waited for.
func (c *cluster) shutdown() error {
	var first error
	for m := range c.servers {
		if err := c.eps[len(c.servers)].Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(m)}); err != nil && first == nil {
			first = fmt.Errorf("shutdown server %d: %w", m, err)
		}
	}
	if first != nil {
		c.close() // a server that never got the message stops on its closed endpoint
	}
	for m, done := range c.srvErr {
		if err := <-done; err != nil && first == nil {
			first = fmt.Errorf("server %d: %w", m, err)
		}
	}
	c.close()
	return first
}

// close releases every resource without waiting for servers (error paths).
func (c *cluster) close() {
	if c.roSess != nil {
		c.roSess.Close()
	}
	if c.roLn != nil {
		c.roLn.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
	for _, ep := range c.eps {
		ep.Close()
	}
	c.roWG.Wait()
}
