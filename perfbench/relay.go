package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"qkd/internal/kms"
	"qkd/internal/qnet"
	"qkd/internal/relay"
	"qkd/internal/rng"
	"qkd/internal/workload"
)

// relay-mesh: k=2 striped key transport from gwA to gwB over a
// three-relay trusted mesh (two stripes plus a disjoint spare) into
// both sites' key delivery services. Everything here runs on the load
// generator's goroutine, so the whole workload, tick decisions and
// failovers included, is a function of the seed.

const (
	relayCount      = 3
	relayRoundXfers = 64
	relaySmallBits  = 1024
	relayLargeBits  = 256 << 10
	relayChunkBits  = 1024
	// relayRateBits is each link's replenishment per tick. Ticks run
	// only while a relay lacks the pad for the next transport, so link
	// pools stay within a few transports of demand, as on real links
	// whose key generation is matched to their load.
	relayRateBits  = 64 << 10
	relayStoreBits = 4 * relayLargeBits
	// One transport in relayLargeEvery moves relayLargeBits, the rest
	// one Qblock. With one in four, the p90 transport time falls inside
	// the large transports' spread rather than at its lower edge, where
	// it jumped by up to 1.5x with the machine's speed: its quartile
	// spread was 0.32-0.41 over ten seeds with one in eight, and
	// 0.09-0.10 with one in four.
	relayLargeEvery = 4
	// One transport in relayCutEvery has a hop of its first stripe cut
	// after routing, forcing a failover to the spare relay.
	relayCutEvery = 8
	relayMaxTicks = 64
)

type relayBench struct {
	o     options
	tr    *tracer
	t     *tally
	rn    *relay.Network
	qn    *qnet.Network
	kdsA  *kms.Service
	kdsB  *kms.Service
	feedA *kms.Feed
	feedB *kms.Feed
	viewA *kms.PoolView
	viewB *kms.PoolView
	sched *rng.SplitMix64
	xfer  int
	buf   *spanBuf

	ticks   int64
	poolMax int
	// consumed counts pad drawn from link pools a Restore replaced;
	// discarded counts key trimmed off full stores.
	consumed, discarded uint64
}

func newRelayMesh(o options, tr *tracer) (runner, error) {
	b := &relayBench{o: o, tr: tr, t: newTally()}
	b.rn = relay.NewNetwork(o.seed ^ 0x5E1A)
	b.rn.AddNode("gwA")
	b.rn.AddNode("gwB")
	for i := 0; i < relayCount; i++ {
		r := fmt.Sprintf("r%d", i)
		b.rn.AddNode(r)
		if _, err := b.rn.AddLink("gwA", r, relayRateBits); err != nil {
			return nil, err
		}
		if _, err := b.rn.AddLink(r, "gwB", relayRateBits); err != nil {
			return nil, err
		}
	}
	b.qn = qnet.NewNetwork(qnet.Config{Seed: o.seed ^ 0x9E7})
	b.qn.RegisterRelay(b.rn)
	b.kdsA, b.kdsB = kms.New(kms.Config{}), kms.New(kms.Config{})
	var err error
	if b.feedA, err = b.kdsA.AttachSource("qnet"); err != nil {
		return nil, err
	}
	if b.feedB, err = b.kdsB.AttachSource("qnet"); err != nil {
		return nil, err
	}
	b.viewA, b.viewB = b.kdsA.PoolView(kms.ClassOTP), b.kdsB.PoolView(kms.ClassOTP)
	b.sched = rng.NewSplitMix64(o.seed ^ 0x512E)
	if tr != nil {
		b.buf = tr.buf("load")
	}
	b.tick()
	return b, nil
}

func (b *relayBench) tick() {
	var sp int32
	if b.buf != nil {
		sp = b.buf.begin(spRelayTick, -1)
	}
	b.qn.Tick()
	if b.buf != nil {
		b.buf.end(sp)
	}
	b.ticks++
	// A link's key store holds at most relayStoreBits; fresh key beyond
	// that is discarded, so pools the routes happen not to use stay
	// bounded instead of growing with the run.
	for _, l := range b.rn.Links() {
		if extra := l.KeyAvailable() - relayStoreBits; extra > 0 {
			if _, err := l.Pool().TryConsume(extra); err == nil {
				b.discarded += uint64(extra)
			}
		}
	}
}

// stocked reports whether every relay's two links hold nbits of pad, so
// both stripes and a failover onto the spare are covered.
func (b *relayBench) stocked(nbits int) bool {
	ok := true
	for _, l := range b.rn.Links() {
		a := l.KeyAvailable()
		if a > b.poolMax {
			b.poolMax = a
		}
		if a < nbits {
			ok = false
		}
	}
	return ok
}

// round runs relayRoundXfers transports in a seeded order. Every round
// carries the same mix: one transport in relayLargeEvery is large, and
// one in relayCutEvery has a hop cut under it, among them one in
// relayCutEvery of the large ones, so the failover tail is always the
// same share of the large transports.
func (b *relayBench) round() error {
	order := make([]int, relayRoundXfers)
	for i := range order {
		order[i] = i
	}
	b.sched.Shuffle(order)
	for _, k := range order {
		nbits := relaySmallBits
		if k < relayRoundXfers/relayLargeEvery {
			nbits = relayLargeBits
		}
		if err := b.transport(nbits, k%relayCutEvery == 0); err != nil {
			return err
		}
	}
	return nil
}

// transport runs one key transport and checks what both sites receive.
func (b *relayBench) transport(nbits int, cut bool) error {
	t := b.t
	for n := 0; !b.stocked(nbits); n++ {
		if n == relayMaxTicks {
			return fmt.Errorf("transport %d: mesh not restocked after %d ticks", b.xfer, n)
		}
		b.tick()
	}
	t.attempted++
	t.counts["transports"]++
	t.counts["bits_requested"] += int64(nbits)
	b.xfer++

	span := func(name int) func() {
		if b.buf == nil {
			return func() {}
		}
		i := b.buf.begin(name, -1)
		return func() { b.buf.end(i) }
	}
	t0 := time.Now()
	done := span(spQNetRoute)
	tr, err := b.qn.NewTransport("gwA", "gwB", nbits, 2, qnet.TransportOpts{
		ChunkBits: relayChunkBits, FeedA: b.feedA, FeedB: b.feedB,
	})
	done()
	if err != nil {
		t.failOp("transport %d: routing: %v", b.xfer, err)
		return nil
	}
	var cutA, cutB string
	if cut {
		route := tr.Routes()[0]
		cutA, cutB = route[0], route[1]
		pool := b.rn.Link(cutA, cutB).Pool()
		_, consumed := pool.Stats()
		b.consumed += consumed
		if err := b.rn.Cut(cutA, cutB); err != nil {
			return err
		}
		t.counts["cuts"]++
	}
	done = span(spQNetRun)
	err = tr.Run(nbits/relayChunkBits + 16)
	done()
	if err != nil {
		tr.Abort()
		t.failOp("transport %d: %v", b.xfer, err)
		return b.restore(cutA, cutB)
	}
	done = span(spQNetFinish)
	d, err := tr.Finish()
	done()
	lat := time.Since(t0)
	if err != nil {
		t.failOp("transport %d: finish: %v", b.xfer, err)
		return b.restore(cutA, cutB)
	}
	b.check(d, nbits, lat)
	return b.restore(cutA, cutB)
}

// restore repairs a link cut for this transport; it restarts empty.
func (b *relayBench) restore(a, c string) error {
	if a == "" {
		return nil
	}
	return b.rn.Restore(a, c)
}

// check drains the transported key from both sites' services: both must
// hold exactly the delivered key, and no relay may be able to
// reconstruct any of it.
func (b *relayBench) check(d *qnet.Delivery, nbits int, lat time.Duration) {
	t := b.t
	for node, bits := range d.KeyBitsExposed {
		if bits != 0 {
			t.fail("transport %d: relay %s could reconstruct %d key bits", b.xfer, node, bits)
			return
		}
	}
	ka, errA := b.viewA.TryConsume(nbits)
	kb, errB := b.viewB.TryConsume(nbits)
	if errA != nil || errB != nil {
		t.fail("transport %d: draining KDS: %v / %v", b.xfer, errA, errB)
		return
	}
	if b.o.corrupt && b.xfer == 1 {
		kb.Flip(0)
	}
	if !ka.Equal(kb) || !ka.Equal(d.Key) {
		t.fail("transport %d: the two sites' KDS hold different key", b.xfer)
		return
	}
	t.bits += int64(nbits)
	t.lat = append(t.lat, lat.Seconds())
	h := fnv.New64a()
	h.Write(ka.Bytes())
	t.counts["key_digest"] = t.counts["key_digest"]*31 + int64(h.Sum64())
	t.counts["ticks"] = b.ticks
}

func (b *relayBench) tally() *tally { return b.t }

func (b *relayBench) summarize() {
	t := b.t
	lat := append([]float64(nil), t.lat...)
	sort.Float64s(lat)
	t.report = []metric{
		{"xfer_ms_p50", workload.Quantile(lat, 0.50) * 1e3, "ms"},
		{"xfer_ms_p99", workload.Quantile(lat, 0.99) * 1e3, "ms"},
		{"relay.ticks", float64(b.ticks), "count"},
	}
	if b.tr == nil {
		return
	}
	consumed := b.consumed
	for _, l := range b.rn.Links() {
		_, c := l.Pool().Stats()
		consumed += c
	}
	consumed -= b.discarded
	st := b.qn.Stats()
	t.layers = []metric{
		{"qnet.failovers", float64(st.Failovers), "count"},
		{"qnet.transports_failed", float64(st.TransportsFailed), "count"},
		{"qnet.pad_bits_per_key_bit", ratio(float64(consumed), float64(t.bits)), "ratio"},
		{"keypool.link_pool_bits_max", float64(b.poolMax), "count"},
	}
	self, calls := b.tr.layerTotals("")
	us := func(i int) float64 { return ratio(float64(self[i].Nanoseconds())/1e3, float64(calls[i])) }
	t.detail = []metric{
		{"relay.tick_us", us(spRelayTick), "us"},
		{"qnet.route_us", us(spQNetRoute), "us"},
		{"qnet.run_us", us(spQNetRun), "us"},
		{"qnet.finish_us", us(spQNetFinish), "us"},
	}
}

func (b *relayBench) close() {
	b.kdsA.Close()
	b.kdsB.Close()
}
