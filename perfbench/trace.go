package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names. Each is a call into one layer (or, for the link phases,
// the stretch of an engine's frame the layer's messages delimit); the
// module name comes first. The list is fixed so every workload reports
// the same per-layer metrics, with zero for layers it does not run.
const (
	spPhotonicsTransmit = iota
	spCoreFrame
	spSifting
	spCascade
	spEntropy
	spPrivacy
	spAuth
	spChannelWait
	spChannelSend
	spKMSIngest
	spKeypoolDeposit
	spIPsecSeal
	spIPsecOpen
	spIKERollover
	spVPNSend
	spRelayTick
	spQNetRoute
	spQNetRun
	spQNetFinish
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spPhotonicsTransmit: "photonics.transmit",
	spCoreFrame:         "core.frame",
	spSifting:           "sifting.sift",
	spCascade:           "cascade.correct",
	spEntropy:           "entropy.estimate",
	spPrivacy:           "privacy.apply",
	spAuth:              "auth.tag_verify",
	spChannelWait:       "channel.wait",
	spChannelSend:       "channel.send",
	spKMSIngest:         "kms.ingest",
	spKeypoolDeposit:    "keypool.deposit",
	spIPsecSeal:         "ipsec.seal",
	spIPsecOpen:         "ipsec.open",
	spIKERollover:       "ike.rollover",
	spVPNSend:           "vpn.send",
	spRelayTick:         "relay.tick",
	spQNetRoute:         "qnet.route",
	spQNetRun:           "qnet.run",
	spQNetFinish:        "qnet.finish",
}

// span is one recorded call: its name, an optional message type, the
// enclosing span in the same buffer (-1 for none), and its start and
// end in nanoseconds since the tracer was made.
type span struct {
	name   uint8
	typ    uint8
	parent int32
	start  int64
	end    int64
}

// tracer keeps spans in memory, one buffer per recording goroutine. At
// every round boundary flush folds them into per-name totals and keeps
// the first maxWrittenSpans for writing out when the run ends, so a
// traced run's memory does not grow with its length.
type tracer struct {
	t0       time.Time
	winStart int64

	mu   sync.Mutex
	bufs []*spanBuf

	// self and calls are the folded totals per buffer label.
	self  map[string]*[numSpanNames]time.Duration
	calls map[string]*[numSpanNames]int64
	// kept holds the spans to write; dropped counts the rest.
	kept    []*spanBuf
	keptN   int
	dropped int
	// analysis is the time spent deriving and folding spans between
	// rounds, which the traced wall time leaves out.
	analysis time.Duration
}

func newTracer() *tracer {
	return &tracer{
		t0:    time.Now(),
		self:  map[string]*[numSpanNames]time.Duration{},
		calls: map[string]*[numSpanNames]int64{},
	}
}

// spanBuf is one goroutine's spans; only that goroutine appends.
type spanBuf struct {
	tr    *tracer
	label string
	spans []span
}

// buf returns a new buffer for one recording goroutine.
func (tr *tracer) buf(label string) *spanBuf {
	b := &spanBuf{tr: tr, label: label}
	tr.mu.Lock()
	tr.bufs = append(tr.bufs, b)
	tr.mu.Unlock()
	return b
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// start opens the measured window; spans that start before it
// (construction) are not counted.
func (tr *tracer) start() { tr.winStart = tr.now() }

// begin opens a span and returns its index.
func (b *spanBuf) begin(name int, parent int32) int32 {
	b.spans = append(b.spans, span{name: uint8(name), parent: parent, start: b.tr.now()})
	return int32(len(b.spans) - 1)
}

// end closes span i.
func (b *spanBuf) end(i int32) { b.spans[i].end = b.tr.now() }

// add records a span whose times are already known.
func (b *spanBuf) add(name int, parent int32, start, end int64) int32 {
	b.spans = append(b.spans, span{name: uint8(name), parent: parent, start: start, end: end})
	return int32(len(b.spans) - 1)
}

// flush folds every buffer's spans into the totals: per span name, the
// self time (duration minus the part its children cover) and the call
// count. It then empties the buffers. Call it only while no span is
// open and no goroutine is recording.
func (tr *tracer) flush() {
	t0 := time.Now()
	defer func() { tr.analysis += time.Since(t0) }()
	for _, b := range tr.bufs {
		if len(b.spans) == 0 {
			continue
		}
		self, calls := tr.self[b.label], tr.calls[b.label]
		if self == nil {
			self, calls = new([numSpanNames]time.Duration), new([numSpanNames]int64)
			tr.self[b.label], tr.calls[b.label] = self, calls
		}
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			if s.start < tr.winStart {
				continue
			}
			self[s.name] += time.Duration(s.end - s.start - child[i])
			calls[s.name]++
		}
		if tr.keptN+len(b.spans) <= maxWrittenSpans {
			tr.kept = append(tr.kept, &spanBuf{label: b.label, spans: b.spans})
			tr.keptN += len(b.spans)
		} else {
			tr.dropped += len(b.spans)
		}
		b.spans = nil
	}
}

// layerTotals returns the folded totals of the buffers with the given
// label, or of all buffers when label is empty.
func (tr *tracer) layerTotals(label string) (self [numSpanNames]time.Duration, calls [numSpanNames]int64) {
	for l, s := range tr.self {
		if label != "" && l != label {
			continue
		}
		c := tr.calls[l]
		for i := range self {
			self[i] += s[i]
			calls[i] += c[i]
		}
	}
	return self, calls
}

// layerMetrics reports every span name's self time as a share of the
// traced run's wall time. A goroutine blocked in channel.wait overlaps
// the others' work, so the shares may sum past 1.
func (tr *tracer) layerMetrics(wall time.Duration) []metric {
	self, _ := tr.layerTotals("")
	out := make([]metric, 0, numSpanNames)
	for i := 0; i < numSpanNames; i++ {
		out = append(out, metric{spanNames[i] + ".share", self[i].Seconds() / wall.Seconds(), "ratio"})
	}
	return out
}

// maxWrittenSpans bounds the spans kept for writing: whole flushed
// buffers are kept in order until the next would pass it. A traced link
// run records millions, all of which feed the metrics.
const maxWrittenSpans = 1 << 19

// write stores the spans as gzipped TSV under dir and returns the path.
func (tr *tracer) write(dir, stem string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, stem+".tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "buf\tid\tname\ttype\tparent\tstart_ns\tend_ns\n")
	for bi, b := range tr.kept {
		for i, s := range b.spans {
			fmt.Fprintf(w, "%s%d\t%d\t%s\t%d\t%d\t%d\t%d\n", b.label, bi, i, spanNames[s.name], s.typ, s.parent, s.start, s.end)
		}
	}
	if tr.dropped > 0 {
		fmt.Fprintf(w, "# %d later spans counted but not written\n", tr.dropped)
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, f.Close()
}
