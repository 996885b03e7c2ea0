// Package golifecycle is the golden fixture for the golifecycle rule:
// fire-and-forget goroutines against the three sanctioned join shapes
// (WaitGroup Done, channel send/close, ctx-bound receive loop), for
// both function-literal and same-package-method spawns.
package golifecycle

import (
	"context"
	"sync"
)

// Orphan spawns a goroutine nothing can join or stop.
func Orphan() {
	go func() { // want "fire-and-forget goroutine"
		println("nobody waits for me")
	}()
}

// Waited ties the goroutine to a WaitGroup.
func Waited(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		println("joined")
	}()
}

// ChannelJoined sends its result; the spawner receives it.
func ChannelJoined(work func() error) error {
	errc := make(chan error, 1)
	go func() { errc <- work() }()
	return <-errc
}

// Closer signals completion by closing a channel.
func Closer() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		println("work")
	}()
	return done
}

// CtxBound loops on cancellation: the owner stops it through ctx.
func CtxBound(ctx context.Context, tick func()) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
				tick()
			}
		}
	}()
}

// Pump mirrors the engine.Durable shape: method spawns resolved by
// name in the same package.
type Pump struct {
	wg sync.WaitGroup
}

// Start spawns one joined worker and one orphan.
func (p *Pump) Start() {
	p.wg.Add(1)
	go p.loop()
	go p.leak() // want "fire-and-forget goroutine"
}

func (p *Pump) loop() {
	defer p.wg.Done()
	println("pumping")
}

func (p *Pump) leak() {
	println("leaking")
}

// Collector is the background-sampler shape: a constructor spawns a
// ticker loop joined by WaitGroup Done plus a ctx-bound receive, and
// Close cancels and waits. Both join signals are sanctioned; the spawn
// must not be flagged.
type Collector struct {
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// NewCollector starts the sampling goroutine its Close joins.
func NewCollector() *Collector {
	c := &Collector{}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.wg.Add(1)
	go c.loop()
	return c
}

func (c *Collector) loop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		default:
			println("sample")
		}
	}
}

// Close stops and joins the sampler.
func (c *Collector) Close() {
	c.cancel()
	c.wg.Wait()
}

// TickerOrphan spawns a periodic sampler nothing can stop: the classic
// collector leak the rule must keep catching.
type TickerOrphan struct{}

// Start leaks the sampling goroutine.
func (o *TickerOrphan) Start() {
	go o.sample() // want "fire-and-forget goroutine"
}

func (o *TickerOrphan) sample() {
	for {
		println("sampling forever")
	}
}
