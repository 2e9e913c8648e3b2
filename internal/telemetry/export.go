package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// NDJSONWriter exports trace events as newline-delimited JSON, one
// event per line — the per-query inverse of the fleet CLI's -ndjson
// per-interval stream. Field order and float formatting are fixed by
// hand (shortest round-trip representation), so the same replay always
// produces byte-identical output: the property the committed
// golden_trace.ndjson pins at any worker count.
//
// Line shape (kind-irrelevant fields omitted):
//
//	{"i":3,"k":"route","m":"DLRM-RMC1","q":81,"t":0.01153,"inst":4,"cand":[2,4],"n":2}
//	{"i":3,"k":"complete","m":"DLRM-RMC1","q":81,"t":0.01153,"inst":4,"v":0.0061}
type NDJSONWriter struct {
	w    *bufio.Writer
	c    io.Closer // closed by Close when the destination is a file
	buf  []byte
	only uint32 // kind bitmask; 0 = every kind (see Restrict)
}

// Restrict limits the writer to the given kinds; other events are
// skipped. The fleet CLI's -record output uses it to write replayable
// arrival traces (arrival + offer lines only) without paying for the
// full lifecycle stream.
func (nw *NDJSONWriter) Restrict(kinds ...Kind) *NDJSONWriter {
	nw.only = 0
	for _, k := range kinds {
		nw.only |= 1 << uint(k)
	}
	return nw
}

// NewNDJSONWriter returns an NDJSON sink over w. If w is an io.Closer
// (a file), Close closes it after flushing.
func NewNDJSONWriter(w io.Writer) *NDJSONWriter {
	nw := &NDJSONWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		nw.c = c
	}
	return nw
}

// appendFloat appends the shortest round-trip decimal form of f.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// WriteEvents implements Sink.
func (nw *NDJSONWriter) WriteEvents(evs []Event) error {
	for i := range evs {
		ev := &evs[i]
		if nw.only != 0 && nw.only&(1<<uint(ev.Kind)) == 0 {
			continue
		}
		b := nw.buf[:0]
		b = append(b, `{"i":`...)
		b = strconv.AppendInt(b, int64(ev.Interval), 10)
		b = append(b, `,"k":"`...)
		b = append(b, ev.Kind.String()...)
		b = append(b, `","m":`...)
		b = strconv.AppendQuote(b, ev.Model)
		if ev.Region != "" {
			// Only multi-region replays stamp a region, so single-region
			// trace bytes (and the committed golden) are unchanged.
			b = append(b, `,"r":`...)
			b = strconv.AppendQuote(b, ev.Region)
		}
		b = append(b, `,"q":`...)
		b = strconv.AppendInt(b, ev.Query, 10)
		b = append(b, `,"t":`...)
		b = appendFloat(b, ev.TimeS)
		if ev.Instance >= 0 {
			b = append(b, `,"inst":`...)
			b = strconv.AppendInt(b, int64(ev.Instance), 10)
		}
		if ev.Kind != KindRoute && ev.Kind != KindDrop {
			b = append(b, `,"v":`...)
			b = appendFloat(b, ev.Value)
		}
		if ev.Kind == KindArrival || ev.Kind == KindOffer {
			b = append(b, `,"aux":`...)
			b = appendFloat(b, ev.Aux)
		}
		if ev.Kind == KindRoute {
			b = append(b, `,"cand":[`...)
			for j := 0; j < int(ev.NCand) && j < MaxCandidates; j++ {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(ev.Cand[j]), 10)
			}
			b = append(b, `],"n":`...)
			b = strconv.AppendInt(b, int64(ev.NCand), 10)
		}
		b = append(b, '}', '\n')
		nw.buf = b[:0]
		if _, err := nw.w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Sink.
func (nw *NDJSONWriter) Close() error {
	err := nw.w.Flush()
	if nw.c != nil {
		if cerr := nw.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ChromeWriter exports the trace in Chrome trace-event JSON (the
// format Perfetto and chrome://tracing load): every traced service
// span becomes a complete ("X") slice on its instance's track, drops
// and sheds become instant events, so a day of routed queries reads as
// a timeline — which server types run hot, where batches form, when a
// shedder starts rejecting.
//
// Replayed intervals each simulate a slice starting at virtual time 0;
// the writer lays interval i down at offset i × SpacingS so the day
// reads left to right.
type ChromeWriter struct {
	// SpacingS is the timeline offset between consecutive intervals
	// (normally the engine's slice length).
	SpacingS float64

	w     *bufio.Writer
	c     io.Closer
	first bool
}

// NewChromeWriter returns a Chrome trace-event sink over w with the
// given inter-interval spacing in seconds (<= 0 defaults to 10).
func NewChromeWriter(w io.Writer, spacingS float64) *ChromeWriter {
	if spacingS <= 0 {
		spacingS = 10
	}
	cw := &ChromeWriter{SpacingS: spacingS, w: bufio.NewWriterSize(w, 1<<16), first: true}
	if c, ok := w.(io.Closer); ok {
		cw.c = c
	}
	return cw
}

// tsUS maps an event to its absolute timeline instant in microseconds.
func (cw *ChromeWriter) tsUS(interval int32, timeS float64) float64 {
	return (float64(interval)*cw.SpacingS + timeS) * 1e6
}

func (cw *ChromeWriter) emit(format string, args ...any) error {
	if cw.first {
		if _, err := cw.w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
			return err
		}
		cw.first = false
	} else {
		if _, err := cw.w.WriteString(",\n"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(cw.w, format, args...)
	return err
}

// WriteEvents implements Sink. Only the kinds with timeline meaning
// are rendered: End carries the service span (ts = end − dur), Drop
// and Shed become instants on their instance's (or the front door's)
// track.
func (cw *ChromeWriter) WriteEvents(evs []Event) error {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case KindEnd:
			if err := cw.emit(`{"name":%q,"cat":"service","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"query":%d,"interval":%d}}`,
				ev.Model, cw.tsUS(ev.Interval, ev.TimeS-ev.Value), ev.Value*1e6,
				ev.Instance, ev.Query, ev.Interval); err != nil {
				return err
			}
		case KindDrop:
			tid := ev.Instance
			if tid < 0 {
				tid = 0
			}
			if err := cw.emit(`{"name":"drop %s","cat":"loss","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d,"args":{"query":%d}}`,
				ev.Model, cw.tsUS(ev.Interval, ev.TimeS), tid, ev.Query); err != nil {
				return err
			}
		case KindShed:
			if err := cw.emit(`{"name":"shed %s","cat":"loss","ph":"i","s":"p","ts":%.3f,"pid":0,"tid":0,"args":{"query":%d,"frac":%.4f}}`,
				ev.Model, cw.tsUS(ev.Interval, ev.TimeS), ev.Query, ev.Value); err != nil {
				return err
			}
		case KindHit:
			if err := cw.emit(`{"name":"hit %s","cat":"cache","ph":"i","s":"p","ts":%.3f,"pid":0,"tid":0,"args":{"query":%d}}`,
				ev.Model, cw.tsUS(ev.Interval, ev.TimeS), ev.Query); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close terminates the JSON document and flushes.
func (cw *ChromeWriter) Close() error {
	var err error
	if cw.first {
		_, err = cw.w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
		cw.first = false
	}
	if _, werr := cw.w.WriteString("\n]}\n"); err == nil {
		err = werr
	}
	if ferr := cw.w.Flush(); err == nil {
		err = ferr
	}
	if cw.c != nil {
		if cerr := cw.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// CountSink counts events per kind without any I/O — the sink the
// traced benchmark uses so measured overhead is tracing, not disk, and
// the cheapest way for tests to assert on trace volume.
type CountSink struct {
	Total   uint64
	PerKind [numKinds]uint64
}

// WriteEvents implements Sink.
func (cs *CountSink) WriteEvents(evs []Event) error {
	cs.Total += uint64(len(evs))
	for i := range evs {
		if k := evs[i].Kind; int(k) < len(cs.PerKind) {
			cs.PerKind[k]++
		}
	}
	return nil
}

// Close implements Sink.
func (cs *CountSink) Close() error { return nil }

// Of returns the count of one kind.
func (cs *CountSink) Of(k Kind) uint64 {
	if int(k) < len(cs.PerKind) {
		return cs.PerKind[k]
	}
	return 0
}
