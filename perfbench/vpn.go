package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"qkd/internal/ike"
	"qkd/internal/ipsec"
	"qkd/internal/kms"
	"qkd/internal/rng"
	"qkd/internal/vpn"
	"qkd/internal/workload"
)

// vpn-mixed: the Fig. 2 two-site VPN with eight tunnels and a key
// delivery service per site, keyed synthetically (NoQKD) so every
// distillation layer idles. The internal/workload DimDim trace drives
// both directions through SendWithRollover; a round is vpnRoundTicks
// generator ticks, each preceded by one ChargeSynthetic top-up.

const (
	vpnTunnels    = 8
	vpnRoundTicks = 32
	// Byte lifetimes and pad sizes make every tunnel roll over many
	// times a run; at 64 KiB lifetimes and 64-Kbit pads the rollover
	// tail swung 3.5x between runs of one seed, at 1 MiB and 1 Mbit it
	// holds steady.
	vpnLifeBytes = 1 << 20
	vpnOTPBits   = 1 << 20
	// vpnKeyTarget is the key the load generator keeps on hand at each
	// site: enough for both OTP tunnels to renew both directions' pads
	// (4 Mbit) with the conventional tunnels' Qblocks besides, so no
	// rollover waits on key.
	vpnKeyTarget = 8 << 20
	// vpnCheckEvery captures one ciphertext in this many for the replay
	// and tamper checks.
	vpnCheckEvery = 64
	vpnPayloadPad = 256
)

// vpnSuite is tunnel i's cipher suite: three AES, three 3DES, two OTP.
func vpnSuite(i int) ipsec.CipherSuite {
	switch {
	case i < 3:
		return ipsec.SuiteAES128CTR
	case i < 6:
		return ipsec.Suite3DESCBC
	}
	return ipsec.SuiteOTP
}

var suiteLabel = map[ipsec.CipherSuite]string{
	ipsec.SuiteAES128CTR: "aes", ipsec.Suite3DESCBC: "3des", ipsec.SuiteOTP: "otp",
}

type vpnBench struct {
	o     options
	tr    *tracer
	t     *tally
	n     *vpn.Network
	gen   *workload.Generator
	dir   *rng.SplitMix64
	block []byte
	pkts  []workload.Packet
	id    uint32

	establish time.Duration

	// Per-packet state shared with the EveTap, which runs on the load
	// generator's goroutine inside Send.
	tapAt   int64
	capture *ipsec.Packet
	wantCap bool

	ingest       []time.Duration
	stalls       int64
	payloadBytes int64
	wireBytes    int64
	// Traced runs: per-suite seal and open times.
	seal, open map[string][]float64
	buf        *spanBuf
}

func newVPNMixed(o options, tr *tracer) (runner, error) {
	b := &vpnBench{o: o, tr: tr, t: newTally(),
		seal: map[string][]float64{}, open: map[string][]float64{}}
	specs := make([]vpn.TunnelSpec, vpnTunnels)
	for i := range specs {
		specs[i] = vpn.TunnelSpec{
			Name:    fmt.Sprintf("t%d", i),
			PrefixA: ipsec.MustPrefix(fmt.Sprintf("10.1.%d.0/24", i)),
			PrefixB: ipsec.MustPrefix(fmt.Sprintf("10.2.%d.0/24", i)),
			Suite:   vpnSuite(i),
			Life:    ipsec.Lifetime{Bytes: vpnLifeBytes},
			OTPBits: vpnOTPBits,
		}
	}
	n, err := vpn.New(vpn.Config{
		Tunnels: specs,
		KDS:     true,
		NoQKD:   true,
		IKE:     ike.Config{Phase2Timeout: 5 * time.Second},
		Seed:    o.seed,
	})
	if err != nil {
		return nil, err
	}
	b.n = n
	b.charge()
	t0 := time.Now()
	if err := n.Establish(); err != nil {
		n.Close()
		return nil, fmt.Errorf("establishing tunnels: %w", err)
	}
	b.establish = time.Since(t0)
	n.EveTap = b.tap
	b.gen = workload.New(workload.Config{Seed: o.seed, Tunnels: vpnTunnels})
	b.dir = rng.NewSplitMix64(o.seed ^ 0xD1EC7)
	b.block = make([]byte, 1400+vpnPayloadPad)
	rng.NewSplitMix64(o.seed ^ 0xB10C).Bytes(b.block)
	if tr != nil {
		b.buf = tr.buf("load")
	}
	return b, nil
}

// charge tops both sites' key up to vpnKeyTarget.
func (b *vpnBench) charge() {
	if need := vpnKeyTarget - b.n.A.Pool.Available(); need > 0 {
		b.n.ChargeSynthetic(need)
	}
}

// tap is the simulated internet: it timestamps the point between
// outbound and inbound processing and captures every vpnCheckEvery-th
// ciphertext for the replay and tamper checks.
func (b *vpnBench) tap(p *ipsec.Packet) (*ipsec.Packet, bool) {
	if b.tr != nil {
		b.tapAt = b.tr.now()
		b.wireBytes += int64(len(p.Payload))
	}
	if b.wantCap {
		cp := *p
		cp.Payload = append([]byte(nil), p.Payload...)
		b.capture = &cp
	}
	return p, false
}

func (b *vpnBench) round() error {
	for tick := 0; tick < vpnRoundTicks; tick++ {
		var ing int32 = -1
		t0 := time.Now()
		if b.buf != nil {
			ing = b.buf.begin(spKMSIngest, -1)
		}
		b.charge()
		if b.buf != nil {
			b.buf.end(ing)
		}
		b.ingest = append(b.ingest, time.Since(t0))
		b.pkts = b.gen.Tick(b.pkts[:0])
		for _, wp := range b.pkts {
			if err := b.send(wp); err != nil {
				return err
			}
		}
	}
	return nil
}

// send offers one generated packet and checks what arrives.
func (b *vpnBench) send(wp workload.Packet) error {
	t := b.t
	b.id++
	id := b.id
	local := ipsec.Addr{10, 1, byte(wp.Tunnel), 5}
	remote := ipsec.Addr{10, 2, byte(wp.Tunnel), 9}
	if b.dir.Uint64()&1 == 1 {
		local, remote = remote, local
	}
	off := int(id*7919) % vpnPayloadPad
	want := b.block[off : off+wp.Bytes]
	t.attempted++
	t.counts["packets"]++
	t.counts["payload_bytes"] += int64(wp.Bytes)
	b.wantCap = id%vpnCheckEvery == 0
	b.capture = nil
	dropped := b.n.Stats().Dropped

	var sp int32
	if b.buf != nil {
		sp = b.buf.begin(spVPNSend, -1)
	}
	b.tapAt = -1
	t0 := time.Now()
	got, err := b.n.SendWithRollover(local, remote, id, want)
	lat := time.Since(t0)
	// SendWithRollover drops a packet that finds no usable SA, rekeys
	// and sends it again: a rollover stall.
	stalled := b.n.Stats().Dropped != dropped
	if stalled {
		b.stalls++
	}
	if b.buf != nil {
		b.buf.end(sp)
		start, end := b.buf.spans[sp].start, b.buf.spans[sp].end
		first := spIPsecSeal
		if stalled {
			first = spIKERollover
		}
		if b.tapAt >= start {
			b.buf.add(first, sp, start, b.tapAt)
			b.buf.add(spIPsecOpen, sp, b.tapAt, end)
		}
		if !stalled && b.tapAt >= start {
			s := suiteLabel[vpnSuite(wp.Tunnel)]
			b.seal[s] = append(b.seal[s], float64(b.tapAt-start)/1e3)
			b.open[s] = append(b.open[s], float64(end-b.tapAt)/1e3)
		}
	}
	if err != nil {
		t.failOp("packet %d on tunnel %d: %v", id, wp.Tunnel, err)
		return nil
	}
	if b.o.corrupt && id == 1 && len(got) > 0 {
		got[0] ^= 1
	}
	if !bytes.Equal(got, want) {
		t.fail("packet %d on tunnel %d: payload corrupted", id, wp.Tunnel)
		return nil
	}
	t.bits += int64(8 * len(got))
	b.payloadBytes += int64(len(got))
	t.lat = append(t.lat, lat.Seconds())
	if b.capture != nil {
		b.checkReplay(b.capture)
	}
	return nil
}

// checkReplay re-injects a captured ciphertext, then a copy with one
// byte flipped; the receiving gateway must refuse both.
func (b *vpnBench) checkReplay(p *ipsec.Packet) {
	in := b.n.A.GW
	if p.Dst == vpn.GatewayB {
		in = b.n.B.GW
	}
	replay := *p
	replay.Payload = append([]byte(nil), p.Payload...)
	if _, err := in.ProcessInbound(&replay); err == nil {
		b.t.fail("replayed ciphertext to %v accepted", p.Dst)
	}
	tampered := *p
	tampered.Payload = append([]byte(nil), p.Payload...)
	tampered.Payload[len(tampered.Payload)/2] ^= 0x40
	if _, err := in.ProcessInbound(&tampered); err == nil {
		b.t.fail("tampered ciphertext to %v accepted", p.Dst)
	}
	b.t.counts["replays_injected"] += 2
}

func (b *vpnBench) tally() *tally { return b.t }

func (b *vpnBench) summarize() {
	t := b.t
	lat := append([]float64(nil), t.lat...)
	sort.Float64s(lat)
	t.report = []metric{
		{"pkt_us_p50", workload.Quantile(lat, 0.50) * 1e6, "us"},
		{"pkt_us_p99", workload.Quantile(lat, 0.99) * 1e6, "us"},
		{"vpn.rollover_stalls", float64(b.stalls), "count"},
		{"vpn.establish_ms", b.establish.Seconds() * 1e3, "ms"},
	}
	if b.tr == nil {
		return
	}
	ga, gb := b.n.A.GW.Stats(), b.n.B.GW.Stats()
	ia, ib := b.n.A.IKE.Stats(), b.n.B.IKE.Stats()
	ka, kb := b.n.A.KDS.Stats(), b.n.B.KDS.Stats()
	vs := b.n.Stats()
	sum := func(f func(s kms.Stats) uint64) float64 { return float64(f(ka) + f(kb)) }
	grantedKB := float64(ka.GrantedBits[kms.ClassOTP] + ka.GrantedBits[kms.ClassRekey])
	t.layers = []metric{
		{"kms.granted_bits.otp", sum(func(s kms.Stats) uint64 { return s.GrantedBits[kms.ClassOTP] }), "count"},
		{"kms.granted_bits.rekey", sum(func(s kms.Stats) uint64 { return s.GrantedBits[kms.ClassRekey] }), "count"},
		{"kms.shed.otp", sum(func(s kms.Stats) uint64 { return s.Shed[kms.ClassOTP] }), "count"},
		{"kms.shed.rekey", sum(func(s kms.Stats) uint64 { return s.Shed[kms.ClassRekey] }), "count"},
		{"kms.degraded", sum(func(s kms.Stats) uint64 {
			var d uint64
			for _, x := range s.Degraded {
				d += x
			}
			return d
		}), "count"},
		{"ipsec.wire_per_payload", ratio(float64(b.wireBytes), float64(b.payloadBytes)), "ratio"},
		{"ipsec.soft_rekeys", float64(ga.SoftRekeys + gb.SoftRekeys), "count"},
		{"ipsec.no_sa", float64(ga.NoSA + gb.NoSA), "count"},
		{"ipsec.expired", float64(ga.Expired + gb.Expired), "count"},
		{"ipsec.replay_drops", float64(ga.ReplayDrops + gb.ReplayDrops), "count"},
		{"ipsec.integ_failures", float64(ga.IntegFailures + gb.IntegFailures), "count"},
		{"ike.phase2_batches", float64(ia.Phase2Batches + ib.Phase2Batches), "count"},
		{"ike.sas_established", float64(ia.SAsEstablished + ib.SAsEstablished), "count"},
		{"ike.phase2_failed", float64(ia.Phase2Failed + ib.Phase2Failed), "count"},
		{"ike.backoffs", float64(ia.Phase2Backoffs + ib.Phase2Backoffs), "count"},
		{"ike.key_bits_per_payload_kb", ratio(grantedKB, float64(b.payloadBytes)/1024), "ratio"},
		{"vpn.rekey_retries", float64(vs.RekeyRetries), "count"},
		{"vpn.rekey_abandoned", float64(vs.RekeyAbandoned), "count"},
		{"vpn.rollover_stalls", float64(b.stalls), "count"},
	}
	for _, s := range []string{"aes", "3des", "otp"} {
		for _, d := range []struct {
			name string
			xs   []float64
		}{{"seal", b.seal[s]}, {"open", b.open[s]}} {
			sort.Float64s(d.xs)
			t.detail = append(t.detail,
				metric{fmt.Sprintf("ipsec.%s_us.%s.p50", d.name, s), workload.Quantile(d.xs, 0.5), "us"},
				metric{fmt.Sprintf("ipsec.%s_us.%s.p99", d.name, s), workload.Quantile(d.xs, 0.99), "us"})
		}
	}
	var ing float64
	for _, d := range b.ingest {
		ing += d.Seconds()
	}
	t.detail = append(t.detail, metric{"kms.ingest_us", ratio(ing*1e6, float64(len(b.ingest))), "us"})
}

func (b *vpnBench) close() { b.n.Close() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
