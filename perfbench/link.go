package main

import (
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"qkd/internal/bitarray"
	"qkd/internal/core"
	"qkd/internal/keypool"
	"qkd/internal/kms"
	"qkd/internal/photonics"
	"qkd/internal/rng"
	"qkd/internal/workload"
)

// Link workloads. A round is one fresh link session (seeded by the run
// seed and the round index) running a fixed number of frames through
// the session's own pipelined frame producer; at the end of the round
// the load generator drains the key from both ends and checks that the
// two are bit-identical. Fresh sessions keep every round's inputs a
// function of the seed alone and bound the authentication pads the
// paper point needs: there each frame's sift exchange spends 64 pad
// bits per direction while a batch replenishes only 256.

const (
	frameSlots = core.FrameSlotsDefault
	batchBits  = 4096
	// Paper point: ~11 sifted bits per frame, a batch every ~375
	// frames, so a round carries ~11 batches.
	paperRoundFrames = 4096
	// Dense point: ~474 sifted bits per frame, a batch every ~9 frames,
	// so a round carries ~55 batches.
	denseRoundFrames = 480
	// authReplenishBits is core's default per-direction share.
	authReplenishBits = 256
)

// fastParams is the dense zero-loss bench link of the repository's
// pipeline micro-benchmarks.
func fastParams() photonics.Params {
	p := photonics.DefaultParams()
	p.FiberKm = 0
	p.SystemLossDB = 0
	p.DetectorEff = 1
	p.DarkCountProb = 1e-5
	p.Visibility = 0.96
	return p
}

// roundSeed derives round r's session seed from the run seed.
func roundSeed(seed uint64, r int) uint64 {
	return rng.NewSplitMix64(seed ^ uint64(r)*0x9E3779B97F4A7C15).Uint64()
}

type linkBench struct {
	o       options
	dense   bool
	params  photonics.Params
	cfg     core.Config
	frames  int
	tr      *tracer
	t       *tally
	r       int
	digest  uint64
	pending *linkSession // the first round's session, built during setup
	layers  linkLayers
}

// linkSession is one round's assembled link: the product's session in
// an untraced run, the traced assembly otherwise.
type linkSession struct {
	run          func(frames int) error
	alice        *core.Alice
	bob          *core.Bob
	aPool, bPool keypool.Pool
	link         *photonics.Link
	landed       *landings
	traced       *tracedLink
	closeFn      func()
}

func newLinkPaper(o options, tr *tracer) (runner, error) {
	return newLink(o, tr, false)
}

func newLinkDense(o options, tr *tracer) (runner, error) {
	return newLink(o, tr, true)
}

func newLink(o options, tr *tracer, dense bool) (runner, error) {
	b := &linkBench{o: o, dense: dense, tr: tr, t: newTally()}
	if dense {
		b.params = fastParams()
		b.cfg = core.Config{BatchBits: batchBits, Corrector: core.CorrectorBBN}
		b.frames = denseRoundFrames
	} else {
		b.params = photonics.DefaultParams()
		b.cfg = core.Config{BatchBits: batchBits, Corrector: core.CorrectorClassic, AuthReplenishBits: authReplenishBits}
		b.frames = paperRoundFrames
	}
	// Setup ends at the first timed operation: the first round's
	// session is built here.
	s, err := b.session(0)
	if err != nil {
		return nil, err
	}
	b.pending = s
	return b, nil
}

// prepositionBits covers a round's authentication: one tagged message
// per frame per direction, plus the error-correction traffic, with a
// 2x margin.
func (b *linkBench) prepositionBits() int { return 2 * 64 * (b.frames + 2048) }

func (b *linkBench) session(r int) (*linkSession, error) {
	seed := roundSeed(b.o.seed, r)
	if b.tr != nil {
		return b.tracedSession(seed)
	}
	landed := &landings{}
	if !b.dense {
		s, err := core.NewAuthenticatedSession(b.params, b.cfg, frameSlots, seed, b.prepositionBits())
		if err != nil {
			return nil, err
		}
		// The auth-share callback runs once per distilled batch, when
		// the first engine deposits it; returning the configured share
		// leaves the split unchanged and timestamps the landing.
		s.SetAuthBias(core.NewAuthBias(func(base int) int {
			landed.mark()
			return base
		}))
		return &linkSession{run: s.RunFrames, alice: s.Alice, bob: s.Bob, aPool: s.Alice.Pool(), bPool: s.Bob.Pool(),
			link: s.Link, landed: landed, closeFn: func() {}}, nil
	}
	ka, kb := kms.New(kms.Config{}), kms.New(kms.Config{})
	va, vb := ka.PoolView(kms.ClassRekey), kb.PoolView(kms.ClassRekey)
	// Bob's deposit timestamps the landing; Alice's view is the
	// service's own.
	s := core.NewSessionWithPools(b.params, b.cfg, frameSlots, seed, va, &stampPool{Pool: vb, landed: landed})
	return &linkSession{run: s.RunFrames, alice: s.Alice, bob: s.Bob, aPool: va, bPool: vb,
		link: s.Link, landed: landed, closeFn: func() { ka.Close(); kb.Close() }}, nil
}

func (b *linkBench) round() error {
	s := b.pending
	b.pending = nil
	start := time.Now()
	if s == nil {
		var err error
		if s, err = b.session(b.r); err != nil {
			return err
		}
	}
	defer s.closeFn()
	s.landed.start(start)
	if err := s.run(b.frames); err != nil {
		return err
	}
	b.checkRound(s)
	b.r++
	return nil
}

// checkRound drains both ends, checks the keys agree, and books the
// round's counts.
func (b *linkBench) checkRound(s *linkSession) {
	am, bm := s.alice.Metrics(), s.bob.Metrics()
	t := b.t
	// A batch is one operation; an aborted one (too many errors, or no
	// secrecy left by the entropy estimate) failed without a wrong output.
	t.attempted += int64(am.BatchesDistilled + am.BatchesAborted)
	t.failed += int64(am.BatchesAborted)
	t.counts["frames"] += int64(am.FramesSifted)
	t.counts["sifted_bits"] += int64(am.SiftedBits)
	t.counts["batches"] += int64(am.BatchesDistilled)
	t.counts["aborted_batches"] += int64(am.BatchesAborted)
	t.counts["distilled_bits"] += int64(am.DistilledBits)
	if am.DistilledBits != bm.DistilledBits || am.BatchesDistilled != bm.BatchesDistilled {
		t.fail("round %d: alice distilled %d bits in %d batches, bob %d in %d", b.r,
			am.DistilledBits, am.BatchesDistilled, bm.DistilledBits, bm.BatchesDistilled)
	}
	ka, errA := s.aPool.TryConsume(s.aPool.Available())
	kb, errB := s.bPool.TryConsume(s.bPool.Available())
	switch {
	case errA != nil || errB != nil:
		t.fail("round %d: draining key: %v / %v", b.r, errA, errB)
	default:
		if b.o.corrupt && b.r == 0 && kb.Len() > 0 {
			kb.Flip(0)
		}
		if !ka.Equal(kb) {
			t.fail("round %d: alice and bob keys differ (%d vs %d bits)", b.r, ka.Len(), kb.Len())
		} else {
			t.bits += int64(ka.Len())
		}
		h := fnv.New64a()
		h.Write(ka.Bytes())
		b.digest = b.digest*31 + h.Sum64()
		t.counts["key_digest"] = int64(b.digest)
	}
	t.lat = append(t.lat, s.landed.intervals()...)
	if s.traced != nil {
		t0 := time.Now()
		b.layers.add(s, am)
		b.tr.analysis += time.Since(t0)
	}
}

func (b *linkBench) tally() *tally { return b.t }

func (b *linkBench) summarize() {
	lat := append([]float64(nil), b.t.lat...)
	sort.Float64s(lat)
	b.t.report = []metric{
		{"batch_ms_p50", workload.Quantile(lat, 0.50) * 1e3, "ms"},
		{"batch_ms_p99", workload.Quantile(lat, 0.99) * 1e3, "ms"},
	}
	if b.tr != nil {
		b.t.layers, b.t.detail = b.layers.metrics(b.tr, !b.dense)
	}
}

func (b *linkBench) close() {
	if b.pending != nil {
		b.pending.closeFn()
		b.pending = nil
	}
}

// landings timestamps batch landings; the intervals between them are
// the link's per-operation latency.
type landings struct {
	mu    sync.Mutex
	t0    time.Time
	times []time.Duration
}

func (l *landings) start(t time.Time) {
	l.mu.Lock()
	l.t0 = t
	l.mu.Unlock()
}

func (l *landings) mark() {
	l.mu.Lock()
	l.times = append(l.times, time.Since(l.t0))
	l.mu.Unlock()
}

// intervals returns the time to each batch from the one before it (the
// first from the round's start).
func (l *landings) intervals() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.times))
	var prev time.Duration
	for i, t := range l.times {
		out[i] = (t - prev).Seconds()
		prev = t
	}
	return out
}

// stampPool is a key pool that timestamps every deposit.
type stampPool struct {
	keypool.Pool
	landed *landings
}

func (p *stampPool) Deposit(bits *bitarray.BitArray) {
	p.Pool.Deposit(bits)
	p.landed.mark()
}
