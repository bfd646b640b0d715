package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// JSONLRecorder writes each event as one JSON object per line:
//
//	{"ev":"placement","t_ns":4000000,"sched":"nest","path":"attached",...}
//
// The "ev" field is the event's Kind; the remaining fields are the
// event's own, in struct order, each appended by the event's appendJSON
// into one reused line buffer. The bytes are exactly what encoding/json
// would marshal for the struct. Errors are sticky: the first write
// failure, or a NaN or infinite float, stops output and is returned by
// Flush.
type JSONLRecorder struct {
	bw  *bufio.Writer
	w   wire
	err error
	n   int
}

// NewJSONL returns a recorder writing to w. Call Flush when done.
func NewJSONL(w io.Writer) *JSONLRecorder {
	return &JSONLRecorder{bw: bufio.NewWriter(w)}
}

// Record implements Recorder.
func (r *JSONLRecorder) Record(ev Event) {
	if r.err != nil {
		return
	}
	w := &r.w
	w.b = append(w.b[:0], `{"ev":`...)
	w.b = appendString(w.b, ev.Kind())
	ev.appendJSON(w)
	if w.err != nil {
		r.err = w.err
		return
	}
	w.b = append(w.b, "}\n"...)
	if _, err := r.bw.Write(w.b); err != nil {
		r.err = err
		return
	}
	r.n++
}

// Lines returns the number of lines successfully written.
func (r *JSONLRecorder) Lines() int { return r.n }

// Flush drains buffered output and returns the first error encountered.
func (r *JSONLRecorder) Flush() error {
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// wire is the line buffer an event appends its fields to. Each method
// appends one `,"key":value` member; the key is a struct tag name and
// needs no escaping. Fields tagged omitempty are skipped by the caller.
type wire struct {
	b   []byte
	err error // first unencodable value (NaN or ±Inf)
}

func (w *wire) key(k string) {
	w.b = append(w.b, ',', '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
}

func (w *wire) str(k, v string) {
	w.key(k)
	w.b = appendString(w.b, v)
}

func (w *wire) int(k string, v int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *wire) i64(k string, v int64) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *wire) u64(k string, v uint64) {
	w.key(k)
	w.b = strconv.AppendUint(w.b, v, 10)
}

func (w *wire) bool(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

// float appends v the way encoding/json formats a float64: 'f' format,
// 'e' below 1e-6 or from 1e21 up, with a two-digit exponent such as
// e-09 trimmed to e-9. NaN and ±Inf have no JSON form; the error is
// encoding/json's own.
func (w *wire) float(k string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			_, w.err = json.Marshal(v)
		}
		return
	}
	w.key(k)
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if format == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// appendString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash and the HTML characters encoding/json
// escapes is copied as is; any other string goes through encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
