package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// marshalRecorder is the reference writer the appenders must match byte
// for byte: json.Marshal of the event struct with {"ev":"<kind>"}
// spliced in as the first member, and the marshal error made sticky.
type marshalRecorder struct {
	buf bytes.Buffer
	err error
	n   int
}

func (r *marshalRecorder) Record(ev Event) {
	if r.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		r.err = err
		return
	}
	kb, _ := json.Marshal(ev.Kind())
	r.buf.WriteString(`{"ev":`)
	r.buf.Write(kb)
	if len(b) > 2 {
		r.buf.WriteByte(',')
		r.buf.Write(b[1 : len(b)-1])
	}
	r.buf.WriteString("}\n")
	r.n++
}

// fillEvent returns the zero event of kind with every exported field set
// from the fuzz input by reflection, so a field added to a struct but
// not to its appender changes the reference bytes and nothing else.
// Field j gets a value offset by j, so appending the wrong field of the
// same type shows too; bit j of zero leaves field j at its zero value,
// to exercise every omitempty rule.
func fillEvent(t *testing.T, kind, s string, i int64, u uint64, f float64, b bool, zero uint64) Event {
	ev, err := decodable[kind]([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.New(reflect.TypeOf(ev)).Elem()
	for j := 0; j < v.NumField(); j++ {
		if !v.Type().Field(j).IsExported() || zero&(1<<j) != 0 {
			continue
		}
		fv := v.Field(j)
		switch fv.Kind() {
		case reflect.String:
			fv.SetString(s + strconv.Itoa(j))
		case reflect.Int, reflect.Int64:
			fv.SetInt(i + int64(j))
		case reflect.Uint64:
			fv.SetUint(u + uint64(j))
		case reflect.Float64:
			fv.SetFloat(f * float64(j+1))
		case reflect.Bool:
			fv.SetBool(b)
		default:
			t.Fatalf("%s field %s: kind %s has no fuzz value", kind, v.Type().Field(j).Name, fv.Kind())
		}
	}
	return v.Interface().(Event)
}

// FuzzEventWire checks JSONLRecorder against marshalRecorder for every
// wire kind: the same line bytes, the same Lines count and the same
// Flush error (NaN and ±Inf floats), event by event on fresh recorders
// and once more for all kinds through one recorder, where an error must
// stop the rest of the stream.
func FuzzEventWire(f *testing.F) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	f.Add("", int64(0), uint64(0), 0.0, false, ^uint64(0))
	f.Add("nest", int64(4000000), uint64(1), 0.5, true, uint64(0))
	f.Add(`<a href="x">&amp;\`, int64(-1), uint64(math.MaxUint64), 1e-7, true, uint64(0))
	f.Add("tab\tnl\n\x00\x1f\x7f", int64(math.MaxInt64), uint64(7), 1e21, false, uint64(0x55))
	f.Add("bad\xff\xfeutf8", int64(math.MinInt64), uint64(0), negZero, true, uint64(0xaa))
	f.Add("line\u2028para\u2029\u00e9", int64(3), uint64(3), nan, false, uint64(0))
	f.Add("inf", int64(3), uint64(3), inf, true, uint64(0))
	f.Add("-inf", int64(3), uint64(3), -inf, true, uint64(1))
	f.Add("small", int64(1), uint64(1), 1.5e-9, false, uint64(0))
	f.Add("big", int64(1), uint64(1), 123456789012345678901234.0, false, uint64(0))
	f.Add("edge", int64(1), uint64(1), 1e-6, false, uint64(0))
	f.Fuzz(func(t *testing.T, s string, i int64, u uint64, fl float64, b bool, zero uint64) {
		kinds := WireKinds()
		var all bytes.Buffer
		allRec := NewJSONL(&all)
		allRef := &marshalRecorder{}
		for _, kind := range kinds {
			ev := fillEvent(t, kind, s, i, u, fl, b, zero)
			var got bytes.Buffer
			rec := NewJSONL(&got)
			ref := &marshalRecorder{}
			rec.Record(ev)
			ref.Record(ev)
			allRec.Record(ev)
			allRef.Record(ev)
			compareWire(t, kind, rec, &got, ref)
		}
		compareWire(t, "all kinds", allRec, &all, allRef)
	})
}

func compareWire(t *testing.T, what string, rec *JSONLRecorder, got *bytes.Buffer, ref *marshalRecorder) {
	t.Helper()
	err := rec.Flush()
	if (err == nil) != (ref.err == nil) || err != nil && err.Error() != ref.err.Error() {
		t.Fatalf("%s: Flush error %v, want %v", what, err, ref.err)
	}
	if !bytes.Equal(got.Bytes(), ref.buf.Bytes()) {
		t.Fatalf("%s: wire bytes differ\n got %q\nwant %q", what, got.Bytes(), ref.buf.Bytes())
	}
	if rec.Lines() != ref.n {
		t.Fatalf("%s: Lines = %d, want %d", what, rec.Lines(), ref.n)
	}
}
