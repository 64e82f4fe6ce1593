package main

import (
	"fmt"
	"sync"
	"time"

	"qkd/internal/auth"
	"qkd/internal/bitarray"
	"qkd/internal/channel"
	"qkd/internal/core"
	"qkd/internal/keypool"
	"qkd/internal/kms"
	"qkd/internal/photonics"
	"qkd/internal/qframe"
	"qkd/internal/rng"
)

// tracedLink is core.Session rebuilt from the public constructors with
// shims on every engine's channel and key pool. It derives the engine
// seeds, prepositioned pads and frame pipeline exactly as
// core.NewSessionWithPools, NewAuthenticatedSession and
// Session.RunFrames do, so a traced round distills the same key as the
// untraced one; key_digest checks that it does.
type tracedLink struct {
	link         *photonics.Link
	alice        *core.Alice
	bob          *core.Bob
	aConn, bConn channel.Conn
	aTr, bTr     *engineTrace
	prod         *spanBuf
	next         uint64
}

// engineTrace is one engine's recording state: its span buffer, the
// frame span in progress and the upper-shim call in progress.
type engineTrace struct {
	buf   *spanBuf
	alice bool
	frame int32
	call  int32
	// sent and ecSent count the engine's messages and its
	// error-correction messages.
	sent, ecSent int64
}

// sendFlag marks a span's message type as sent rather than received.
const sendFlag = 0x80

func (b *linkBench) tracedSession(seed uint64) (*linkSession, error) {
	p := b.params
	ca, cb := channel.MemPair(256)
	cfgA, cfgB := b.cfg, b.cfg
	cfgA.Seed = seed ^ 0xA11CE
	cfgB.Seed = seed ^ 0xB0B
	cfgA.MultiPhotonProb, cfgB.MultiPhotonProb = p.MultiPhotonProb(), p.MultiPhotonProb()
	cfgA.NonVacuumProb, cfgB.NonVacuumProb = p.NonVacuumProb(), p.NonVacuumProb()

	tl := &tracedLink{
		link: photonics.NewLink(p, seed),
		aTr:  &engineTrace{buf: b.tr.buf("alice"), alice: true, frame: -1, call: -1},
		bTr:  &engineTrace{buf: b.tr.buf("bob"), frame: -1, call: -1},
		prod: b.tr.buf("producer"),
	}
	s := &linkSession{run: tl.runFrames, link: tl.link, landed: &landings{}, traced: tl, closeFn: func() {}}
	depositSpan := spKeypoolDeposit
	var aliceAB, aliceBA, bobAB, bobBA *keypool.Reservoir
	if b.dense {
		ka, kb := kms.New(kms.Config{}), kms.New(kms.Config{})
		s.aPool, s.bPool = ka.PoolView(kms.ClassRekey), kb.PoolView(kms.ClassRekey)
		s.closeFn = func() { ka.Close(); kb.Close() }
		depositSpan = spKMSIngest
		// Without authentication one shim is both the engine's channel
		// and the raw channel.
		tl.aConn = &connShim{inner: ca, e: tl.aTr, raw: true}
		tl.bConn = &connShim{inner: cb, e: tl.bTr, raw: true}
	} else {
		s.aPool, s.bPool = keypool.New(), keypool.New()
		secret := rng.NewSplitMix64(seed ^ 0x5EC12E7)
		abBits := secret.Bits(b.prepositionBits())
		baBits := secret.Bits(b.prepositionBits())
		aliceAB, aliceBA = keypool.New(), keypool.New()
		bobAB, bobBA = keypool.New(), keypool.New()
		aliceAB.Deposit(abBits.Clone())
		bobAB.Deposit(abBits)
		aliceBA.Deposit(baBits.Clone())
		bobBA.Deposit(baBits)
		// One shim below auth.Wrap times the raw channel; one above it
		// times the authenticated call, so auth's time is the difference.
		wa, err := auth.Wrap(&connShim{inner: ca, e: tl.aTr, lower: true}, aliceAB, aliceBA)
		if err != nil {
			return nil, fmt.Errorf("wrapping alice channel: %w", err)
		}
		wb, err := auth.Wrap(&connShim{inner: cb, e: tl.bTr, lower: true}, bobBA, bobAB)
		if err != nil {
			return nil, fmt.Errorf("wrapping bob channel: %w", err)
		}
		tl.aConn = &connShim{inner: wa, e: tl.aTr}
		tl.bConn = &connShim{inner: wb, e: tl.bTr}
	}
	tl.alice = core.NewAlice(tl.aConn, &tracePool{Pool: s.aPool, e: tl.aTr, name: depositSpan}, cfgA)
	tl.bob = core.NewBob(tl.bConn, &tracePool{Pool: s.bPool, e: tl.bTr, name: depositSpan, landed: s.landed}, cfgB)
	if !b.dense {
		tl.alice.SetAuthPools(aliceAB, aliceBA)
		tl.bob.SetAuthPools(bobBA, bobAB)
	}
	s.alice, s.bob = tl.alice, tl.bob
	return s, nil
}

// runFrames is Session.RunFrames with a span around every transmitted
// frame and every engine's frame.
func (tl *tracedLink) runFrames(n int) error {
	type framePair struct {
		id uint64
		tx *qframe.TxFrame
		rx *qframe.RxFrame
	}
	frames := make(chan framePair, 4) // core's framePipelineDepth
	stop := make(chan struct{})
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		defer close(frames)
		for i := 0; i < n; i++ {
			sp := tl.prod.begin(spPhotonicsTransmit, -1)
			tx, rx := tl.link.TransmitFrame(tl.next, frameSlots)
			tl.prod.end(sp)
			p := framePair{id: tl.next, tx: tx, rx: rx}
			tl.next++
			select {
			case frames <- p:
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-prodDone
	}()
	for p := range frames {
		var wg sync.WaitGroup
		var aliceErr, bobErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl.aTr.frame = tl.aTr.buf.begin(spCoreFrame, -1)
			aliceErr = tl.alice.HandleFrame(p.tx)
			tl.aTr.buf.end(tl.aTr.frame)
			if aliceErr != nil {
				tl.aConn.Close()
			}
		}()
		tl.bTr.frame = tl.bTr.buf.begin(spCoreFrame, -1)
		bobErr = tl.bob.HandleFrame(p.rx)
		tl.bTr.buf.end(tl.bTr.frame)
		if bobErr != nil {
			tl.bConn.Close()
		}
		wg.Wait()
		if aliceErr != nil {
			return fmt.Errorf("frame %d: %w", p.id, aliceErr)
		}
		if bobErr != nil {
			return fmt.Errorf("frame %d: %w", p.id, bobErr)
		}
	}
	return nil
}

// connShim records a span around every Send and Recv of one engine.
// The upper shim (the engine's own channel) records the call with its
// message type as a child of the engine's frame; the lower shim, under
// auth.Wrap, records the raw channel call as a child of the upper one.
// With no authentication a single raw shim does both.
type connShim struct {
	inner channel.Conn
	e     *engineTrace
	lower bool
	raw   bool
}

func (c *connShim) spanName(send bool) int {
	switch {
	case !c.lower && !c.raw:
		return spAuth
	case send:
		return spChannelSend
	default:
		return spChannelWait
	}
}

func (c *connShim) open(send bool) int32 {
	parent := c.e.frame
	if c.lower {
		parent = c.e.call
	}
	i := c.e.buf.begin(c.spanName(send), parent)
	if !c.lower {
		c.e.call = i
	}
	return i
}

func (c *connShim) Send(t uint8, p []byte) error {
	i := c.open(true)
	if !c.lower {
		c.e.sent++
		if t == core.TEC {
			c.e.ecSent++
		}
	}
	err := c.inner.Send(t, p)
	c.e.buf.spans[i].typ = t | sendFlag
	c.e.buf.end(i)
	return err
}

func (c *connShim) Recv() (channel.Message, error) {
	i := c.open(false)
	m, err := c.inner.Recv()
	c.e.buf.spans[i].typ = m.Type
	c.e.buf.end(i)
	return m, err
}

func (c *connShim) RecvTimeout(d time.Duration) (channel.Message, error) {
	i := c.open(false)
	m, err := c.inner.RecvTimeout(d)
	c.e.buf.spans[i].typ = m.Type
	c.e.buf.end(i)
	return m, err
}

func (c *connShim) Close() error         { return c.inner.Close() }
func (c *connShim) Stats() channel.Stats { return c.inner.Stats() }

// tracePool records a span around every deposit of distilled key.
type tracePool struct {
	keypool.Pool
	e      *engineTrace
	name   int
	landed *landings
}

func (p *tracePool) Deposit(bits *bitarray.BitArray) {
	i := p.e.buf.begin(p.name, p.e.frame)
	p.Pool.Deposit(bits)
	p.e.buf.end(i)
	if p.landed != nil {
		p.landed.mark()
	}
}

// phaseOf maps one engine call to the pipeline stage it belongs to and
// the stage the engine is in once it returns. The stages are bounded
// by the protocol's message types: TSift..TSiftResp is sifting, TEC
// through the EC summary is cascade, the summary to Alice's PA
// parameters is the entropy estimate, and PA parameters to the deposit
// is privacy amplification.
func phaseOf(s span, alice bool) (during, after int) {
	if s.name == spKMSIngest || s.name == spKeypoolDeposit {
		return spPrivacy, spPrivacy
	}
	switch s.typ &^ sendFlag {
	case core.TSift, core.TSiftResp:
		return spSifting, spSifting
	case core.TEC:
		return spCascade, spCascade
	case core.TECSummary:
		return spCascade, spEntropy
	case core.TPAParams:
		if alice {
			return spPrivacy, spPrivacy
		}
		return spEntropy, spPrivacy
	}
	return spSifting, spSifting
}

// derivePhases inserts, inside every frame span of an engine, one span
// per pipeline stage and moves the frame's calls under the stage they
// belong to, so each stage's self time is the engine's own work in it.
func derivePhases(e *engineTrace) {
	b := e.buf
	n := len(b.spans)
	var kids []int32
	for f := 0; f < n; f++ {
		if b.spans[f].name != spCoreFrame {
			continue
		}
		fr := b.spans[f]
		kids = kids[:0]
		for i := f + 1; i < n && b.spans[i].start <= fr.end; i++ {
			if b.spans[i].parent == int32(f) {
				kids = append(kids, int32(i))
			}
		}
		cur, curStart := spSifting, fr.start
		var pending []int32
		closePhase := func(end int64) {
			if end > curStart || len(pending) > 0 {
				ph := b.add(cur, int32(f), curStart, end)
				for _, k := range pending {
					b.spans[k].parent = ph
				}
			}
			pending = pending[:0]
		}
		for _, k := range kids {
			s := b.spans[k]
			during, after := phaseOf(s, e.alice)
			if during != cur {
				closePhase(s.start)
				cur, curStart = during, s.start
			}
			pending = append(pending, k)
			if after != cur {
				closePhase(s.end)
				cur, curStart = after, s.end
			}
		}
		closePhase(fr.end)
	}
}

// linkLayers accumulates the traced link's per-layer counts.
type linkLayers struct {
	frames, clicks, sifted, batches, aborted uint64
	disclosed, distilled, replenished        uint64
	msgs, ecMsgs                             int64
}

// add books a finished traced round and derives its stage spans, ready
// for the tracer's flush at the round boundary.
func (l *linkLayers) add(s *linkSession, am core.Metrics) {
	for _, e := range []*engineTrace{s.traced.aTr, s.traced.bTr} {
		derivePhases(e)
		l.msgs += e.sent
		l.ecMsgs += e.ecSent
	}
	st := s.link.Stats()
	l.frames += am.FramesSifted
	l.clicks += st.SingleClicks + st.DoubleClicks
	l.sifted += am.SiftedBits
	l.batches += am.BatchesDistilled
	l.aborted += am.BatchesAborted
	l.disclosed += am.ParityDisclosed
	l.distilled += am.DistilledBits
	l.replenished += am.AuthReplenished
}

// metrics returns the link's per-layer counts and ratios (layers) and
// its per-call times (detail).
func (l *linkLayers) metrics(tr *tracer, authenticated bool) (layers, detail []metric) {
	msgs, ecMsgs := l.msgs, l.ecMsgs
	attempted := l.batches + l.aborted
	per := func(x float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	padBits := 0.0
	if authenticated {
		padBits = per(float64(msgs*auth.PadBitsPerMessage), attempted)
	}
	layers = []metric{
		{"photonics.clicks_per_frame", per(float64(l.clicks), l.frames), "count"},
		{"sifting.bits_per_click", per(float64(l.sifted), l.clicks), "ratio"},
		{"cascade.msgs_per_batch", per(float64(ecMsgs), attempted), "count"},
		{"cascade.disclosed_per_bit", per(float64(l.disclosed), attempted*batchBits), "ratio"},
		{"privacy.secret_per_sifted", per(float64(l.distilled+l.replenished), l.sifted), "ratio"},
		{"core.aborted_per_batch", per(float64(l.aborted), attempted), "ratio"},
		{"auth.pad_bits_per_batch", padBits, "count"},
	}
	self, calls := tr.layerTotals("")
	bobSelf, _ := tr.layerTotals("bob")
	aliceSelf, _ := tr.layerTotals("alice")
	us := func(d time.Duration, n uint64) float64 { return per(float64(d.Nanoseconds())/1e3, n) }
	detail = []metric{
		{"photonics.transmit_us", us(self[spPhotonicsTransmit], uint64(calls[spPhotonicsTransmit])), "us"},
		{"sifting.sift_us", us(bobSelf[spSifting], l.frames), "us"},
		{"cascade.correct_ms", us(self[spCascade], attempted) / 1e3, "ms"},
		{"entropy.estimate_us", us(aliceSelf[spEntropy], attempted), "us"},
		{"privacy.apply_ms", us(self[spPrivacy], l.batches) / 1e3, "ms"},
		{"auth.us_per_msg", us(self[spAuth], uint64(calls[spAuth])), "us"},
		{"channel.wait_us_per_batch", us(self[spChannelWait], attempted), "us"},
		{"kms.ingest_us", us(self[spKMSIngest], uint64(calls[spKMSIngest])), "us"},
		{"keypool.deposit_us", us(self[spKeypoolDeposit], uint64(calls[spKeypoolDeposit])), "us"},
		// The key a batch leaves after repaying the pad its
		// authentication spent beyond what it replenished; negative
		// when authentication uses up the prepositioned pads.
		{"auth.net_key_bits_per_batch", per(float64(l.distilled+l.replenished), attempted) - padBits, "count"},
	}
	return layers, detail
}
