package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// checkDecodesLikeUnmarshal pins the decoder's contract on one report: its
// json.Marshal payload decodes to exactly what json.Unmarshal yields, and
// re-encoding the decoded report gives the payload back.
func checkDecodesLikeUnmarshal(t *testing.T, name string, rep *telemetry.Report) {
	t.Helper()
	payload, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var got, want telemetry.Report
	if err := reportCodec.decode(payload, &got); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if err := json.Unmarshal(payload, &want); err != nil {
		t.Fatalf("%s: json.Unmarshal: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decoded report differs from json.Unmarshal's:\n%+v\n%+v", name, got, want)
	}
	again, err := json.Marshal(&got)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(again, payload) {
		t.Errorf("%s: re-encoded report differs from the payload:\n%s\n%s", name, again, payload)
	}
}

// runReports simulates specs through the engine, so each report is what a
// sweep would store.
func runReports(t *testing.T, specs []JobSpec) []*telemetry.Report {
	t.Helper()
	sum, err := New(Options{Workers: 2}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*telemetry.Report, len(specs))
	for i, j := range sum.Jobs {
		if j.Status != StatusOK {
			t.Fatalf("%s: %s", j.Spec.Name(), j.Error)
		}
		reps[i] = j.Report
	}
	return reps
}

// The result-digest matrix of the repository's TestResultGolden: its
// conflict kernels at their sizes, every LSQ issue policy, and the default
// and 4K-instruction windows.
var (
	goldenKernels     = []string{"histogram", "bank", "hashmap", "stencil", "cursor"}
	goldenKernelSizes = map[string]int{"histogram": 256, "bank": 256, "hashmap": 256, "stencil": 128, "cursor": 256}
	goldenSchemes     = []string{"storeset+flush", "dsre", "oracle", "conservative", "aggressive+flush", "storeset+dsre"}
	goldenMachines    = []JobSpec{{}, {Frames: 32, GridWidth: 8, GridHeight: 8}}
)

// tinySizes are the benchmark's sweep sizes: every kernel in a few
// milliseconds.
var tinySizes = map[string]int{
	"bank": 128, "cursor": 128, "dotprod": 256, "hashmap": 128,
	"histogram": 128, "listsum": 128, "matmul": 6, "queue": 64,
	"sort": 16, "spmv": 32, "stencil": 64, "strmatch": 128,
	"treewalk": 128, "vecsum": 256,
}

// TestDecodeReportMatchesUnmarshal runs the decoder differentially against
// json.Unmarshal on real reports: every point of the result-digest matrix,
// every kernel under every scheme at the benchmark's sweep sizes, and one
// report with telemetry samples.
func TestDecodeReportMatchesUnmarshal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 145 simulations")
	}
	var specs []JobSpec
	for _, k := range goldenKernels {
		for _, s := range goldenSchemes {
			for _, m := range goldenMachines {
				m.Workload, m.Scheme, m.Size = k, s, goldenKernelSizes[k]
				specs = append(specs, m)
			}
		}
	}
	if len(specs) != 60 {
		t.Fatalf("golden matrix has %d points, want 60", len(specs))
	}
	for _, k := range repro.Workloads() {
		for _, s := range repro.Schemes() {
			specs = append(specs, JobSpec{Workload: k, Scheme: s, Size: tinySizes[k]})
		}
	}
	specs = append(specs, JobSpec{Workload: "histogram", Size: 128, SampleEvery: 50})
	reps := runReports(t, specs)
	if len(reps[len(reps)-1].Samples) == 0 {
		t.Fatal("the sampled report has no samples")
	}
	for i, rep := range reps {
		checkDecodesLikeUnmarshal(t, specs[i].Name(), rep)
	}
}

// fillValues are the non-zero values fill cycles through: integers at both
// ends of their range, floats json.Marshal writes in decimal and in
// exponent form (including a subnormal), and strings holding every escape
// it writes and multi-byte runes.
var (
	fillInts   = []int64{1, -2, math.MaxInt64, math.MinInt64, 1234567}
	fillFloats = []float64{1.5e-7, 2.5e21, 0.1, -3.25, 5e-324, math.MaxFloat64, 123456789.125, 1e-6, 1e21}
	fillStrs   = []string{"dsre", "a\"b\\c/d", "<tag>&amp;", "\u2028\u2029", "\x00\x01\x1f\b\f\n\r\t\x7f", "héllo ✓ 𝄞"}
)

// fill sets every exported field reachable from v to a non-zero value;
// slices get two elements.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(fillInts[*n%len(fillInts)])
	case reflect.Uint64:
		v.SetUint(math.MaxUint64 - uint64(*n))
	case reflect.Float64:
		v.SetFloat(fillFloats[*n%len(fillFloats)])
	case reflect.String:
		v.SetString(fillStrs[*n%len(fillStrs)])
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	default:
		panic("fill: unexpected kind " + v.Kind().String())
	}
}

// TestDecodeEveryField fills every field of a report, its histogram's
// buckets included, and checks the decoder against json.Unmarshal on it:
// a field the decoder skipped or misread would show here even when no
// simulation sets it.
func TestDecodeEveryField(t *testing.T) {
	var rep telemetry.Report
	n := 0
	fill(reflect.ValueOf(&rep).Elem(), &n)
	if len(rep.Samples) != 2 || len(rep.Stats.Forensics.Loads[1].TopStores) != 2 || rep.Stats.WaveSizeHist.Buckets[31] == 0 {
		t.Fatalf("fill left fields empty: %+v", rep)
	}
	checkDecodesLikeUnmarshal(t, "filled", &rep)

	var hdr, want recordHeader
	fill(reflect.ValueOf(&want).Elem(), &n)
	line, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if err := headerCodec.decode(line, &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr != want {
		t.Errorf("header decodes to %+v, want %+v", hdr, want)
	}
}

// TestDecodeStrings pins the string decoding against json.Unmarshal for
// the escapes json.Marshal writes, and rejects what it never writes.
func TestDecodeStrings(t *testing.T) {
	type doc struct {
		S string `json:"s"`
	}
	codec := newCanonical[doc]()
	accept := []string{
		`"plain"`, `""`, `"\"\\\b\f\n\r\t"`, `"\u0000\u001f\u003c\u003e\u0026"`,
		`"\u2028\u2029\ufffd"`, `"héllo ✓ 𝄞"`, `"<>&"`, `"a\u00e9b"`,
	}
	for _, s := range accept {
		in := []byte(`{"s":` + s + `}`)
		var got, want doc
		if err := codec.decode(in, &got); err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if err := json.Unmarshal(in, &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s decodes to %q, json.Unmarshal to %q", s, got.S, want.S)
		}
	}
	reject := []string{
		`"\/"`, `"\ud834\udd1e"`, `"\ud800"`, `"\u00E9"`, `"\u00e"`, `"\x"`, "\"\x01\"",
		"\"\xff\"", "\"a\\n\xff\"", `"open`, `"esc\`, `'q'`, `null`,
	}
	for _, s := range reject {
		var got doc
		if err := codec.decode([]byte(`{"s":`+s+`}`), &got); err == nil {
			t.Errorf("%s decoded to %q, want rejected", s, got.S)
		}
	}
}

// TestDecodeNumbers pins integer and float decoding: the forms json.Marshal
// writes decode like json.Unmarshal, and overflow or a leading zero is
// rejected.
func TestDecodeNumbers(t *testing.T) {
	type doc struct {
		I int64   `json:"i"`
		U uint64  `json:"u"`
		N int     `json:"n"`
		F float64 `json:"f"`
		S int8    `json:"s,omitempty"`
		B uint8   `json:"b,omitempty"`
		G float32 `json:"g,omitempty"`
	}
	codec := newCanonical[doc]()
	accept := []string{
		`{"i":0,"u":0,"n":0,"f":0}`,
		`{"i":-9223372036854775808,"u":18446744073709551615,"n":9223372036854775807,"f":-0}`,
		`{"i":42,"u":10000000000000000000,"n":-7,"f":1e-7}`,
		`{"i":1,"u":1,"n":1,"f":1.5e+21}`,
		`{"i":1,"u":1,"n":1,"f":5e-324}`,
		`{"i":1,"u":1,"n":1,"f":1.7976931348623157e+308}`,
		`{"i":1,"u":1,"n":1,"f":0.000001}`,
		`{"i":1,"u":1,"n":1,"f":1E5}`,
		`{"i":1,"u":1,"n":1,"f":1,"s":-128,"b":255,"g":3.4028235e+38}`,
		`{"i":1,"u":1,"n":1,"f":1,"s":127,"g":1e-45}`,
	}
	for _, in := range accept {
		var got, want doc
		if err := codec.decode([]byte(in), &got); err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		if got != want || math.Signbit(got.F) != math.Signbit(want.F) {
			t.Errorf("%s decodes to %+v, json.Unmarshal to %+v", in, got, want)
		}
	}
	reject := []string{
		`{"i":9223372036854775808,"u":0,"n":0,"f":0}`,
		`{"i":-9223372036854775809,"u":0,"n":0,"f":0}`,
		`{"i":0,"u":18446744073709551616,"n":0,"f":0}`,
		`{"i":0,"u":-1,"n":0,"f":0}`,
		`{"i":01,"u":0,"n":0,"f":0}`,
		`{"i":-0,"u":0,"n":0,"f":0}`,
		`{"i":1.0,"u":0,"n":0,"f":0}`,
		`{"i":1e3,"u":0,"n":0,"f":0}`,
		`{"i":+1,"u":0,"n":0,"f":0}`,
		`{"i":0,"u":0,"n":0,"f":1e400}`,
		`{"i":0,"u":0,"n":0,"f":1.}`,
		`{"i":0,"u":0,"n":0,"f":.5}`,
		`{"i":0,"u":0,"n":0,"f":1e}`,
		`{"i":0,"u":0,"n":0,"f":NaN}`,
		`{"i":0,"u":0,"n":0,"f":"1"}`,
		`{"i":null,"u":0,"n":0,"f":0}`,
		`{"i":0,"u":0,"n":0}`,
		`{"i":0,"u":0,"n":0,"f":0,"s":128}`,
		`{"i":0,"u":0,"n":0,"f":0,"s":-129}`,
		`{"i":0,"u":0,"n":0,"f":0,"b":256}`,
		`{"i":0,"u":0,"n":0,"f":0,"g":3.5e+38}`,
	}
	for _, in := range reject {
		var got doc
		if err := codec.decode([]byte(in), &got); err == nil {
			t.Errorf("%s decoded to %+v, want rejected", in, got)
		}
	}
}

// TestDecodeSlices pins nil against empty: an absent or null slice decodes
// to nil and [] to an empty slice, as json.Unmarshal does.
func TestDecodeSlices(t *testing.T) {
	type doc struct {
		A []int64 `json:"a"`
		B []int64 `json:"b,omitempty"`
	}
	codec := newCanonical[doc]()
	for _, in := range []string{`{"a":null}`, `{"a":[]}`, `{"a":[1,-2],"b":[3]}`, `{"a":[],"b":[]}`} {
		var got, want doc
		if err := codec.decode([]byte(in), &got); err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes to %#v, json.Unmarshal to %#v", in, got, want)
		}
	}
	for _, in := range []string{`{}`, `{"b":[1]}`, `{"a":[1,]}`, `{"a":[,1]}`, `{"a":[1 ]}`, `{"a":[1}`, `{"a":{}}`} {
		var got doc
		if err := codec.decode([]byte(in), &got); err == nil {
			t.Errorf("%s decoded to %#v, want rejected", in, got)
		}
	}
}

// TestDecodeRejectsNonCanonical pins that only the compact, ordered
// encoding decodes.  Every case but the truncations and the bare null is
// valid JSON that json.Unmarshal reads into the same report.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	payload, err := json.Marshal(realRecord(t).Report)
	if err != nil {
		t.Fatal(err)
	}
	const head = `{"schema":"dsre-report/v1","workload":"histogram","scheme":"dsre",`
	if !bytes.HasPrefix(payload, []byte(head)) {
		t.Fatalf("payload starts %.80s, want %s", payload, head)
	}
	var sorted map[string]json.RawMessage
	if err := json.Unmarshal(payload, &sorted); err != nil {
		t.Fatal(err)
	}
	sortedKeys, err := json.Marshal(sorted)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, payload, "", "  "); err != nil {
		t.Fatal(err)
	}
	replace := func(old, new string) []byte {
		out := bytes.Replace(payload, []byte(old), []byte(new), 1)
		if bytes.Equal(out, payload) {
			t.Fatalf("%s not in the payload", old)
		}
		return out
	}
	cases := []struct {
		name  string
		input []byte
		valid bool // json.Unmarshal accepts it
	}{
		{"indented", indented.Bytes(), true},
		{"space after a colon", replace(`"cycles":`, `"cycles": `), true},
		{"leading space", append([]byte(" "), payload...), true},
		{"trailing newline", append(payload[:len(payload):len(payload)], '\n'), true},
		{"trailing bytes", append(payload[:len(payload):len(payload)], "{}"...), false},
		{"sorted keys", sortedKeys, true},
		{"swapped keys", replace(head, `{"schema":"dsre-report/v1","scheme":"dsre","workload":"histogram",`), true},
		{"swapped nested keys", replace(`{"commit":`, `{"wave":0,"commit":`), true},
		{"unknown key first", replace(`{"schema"`, `{"extra":1,"schema"`), true},
		{"unknown key last", append(payload[:len(payload)-1:len(payload)-1], `,"zz":0}`...), true},
		{"missing key", dropKey(t, payload, `"blocks":`), true},
		{"duplicate key", replace(`"workload":"histogram",`, `"workload":"histogram","workload":"histogram",`), true},
		{"case-folded key", replace(`"cycles":`, `"Cycles":`), true},
		{"bare null", []byte("null"), true},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		var got telemetry.Report
		if err := reportCodec.decode(tc.input, &got); err == nil {
			t.Errorf("%s: decoded, want rejected", tc.name)
		}
		var want telemetry.Report
		if valid := json.Unmarshal(tc.input, &want) == nil; valid != tc.valid {
			t.Errorf("%s: json.Unmarshal accepts = %v, want %v", tc.name, valid, tc.valid)
		}
	}
	for n := 0; n < len(payload); n++ {
		var got telemetry.Report
		if err := reportCodec.decode(payload[:n], &got); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes decoded", n, len(payload))
		}
	}
}

// dropKey removes the first member with the given key from a compact
// payload, whose value must be a number.
func dropKey(t *testing.T, payload []byte, key string) []byte {
	t.Helper()
	i := bytes.Index(payload, []byte(key))
	if i < 1 || payload[i-1] != ',' {
		t.Fatalf("%s is not a later member of the payload", key)
	}
	j := i + len(key)
	for j < len(payload) && payload[j] != ',' && payload[j] != '}' {
		j++
	}
	return append(payload[:i-1:i-1], payload[j:]...)
}

// TestDecodeCompilesStoreTypes pins that the decoder refuses, when it is
// built, the encodings it does not implement, instead of misreading them.
func TestDecodeCompilesStoreTypes(t *testing.T) {
	for name, build := range map[string]func(){
		"map":       func() { newCanonical[struct{ M map[string]int }]() },
		"interface": func() { newCanonical[struct{ A any }]() },
		"bytes":     func() { newCanonical[struct{ B []byte }]() },
		"array":     func() { newCanonical[struct{ A [2]int }]() },
		"pointer":   func() { newCanonical[struct{ P *int }]() },
		"embedded":  func() { newCanonical[struct{ JobSpec }]() },
		"option": func() {
			newCanonical[struct {
				N int `json:"n,string"`
			}]()
		},
		"codec": func() { newCanonical[struct{ R json.RawMessage }]() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: compiled, want a panic", name)
				}
			}()
			build()
		}()
	}
}

// FuzzDecodeReport checks the decoder's one-sided contract on arbitrary
// input: whatever it accepts, json.Unmarshal accepts too, with an equal
// report.  The seed corpus (testdata/fuzz/FuzzDecodeReport) holds real
// payloads and near misses; a plain go test runs exactly those.
func FuzzDecodeReport(f *testing.F) {
	payload, err := json.Marshal(fakeReport(JobSpec{Workload: "vecsum", Scheme: "dsre"}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got telemetry.Report
		if reportCodec.decode(data, &got) != nil {
			return
		}
		var want telemetry.Report
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decoded input json.Unmarshal rejects (%v): %q", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, json.Unmarshal %+v, input %q", got, want, data)
		}
	})
}

// TestStoreReadsMarshalledObjects pins that objects laid out by earlier
// builds of dsre-sweep-record/v3, whose lines were written by json.Marshal,
// read as hits with exactly the report json.Unmarshal gives.
func TestStoreReadsMarshalledObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Workload: "histogram", Size: 128, Scheme: "dsre"},
		{Workload: "stencil", Size: 64, Scheme: "storeset+flush", SampleEvery: 40},
	}
	for i, rep := range runReports(t, specs) {
		h := mustHash(t, specs[i])
		payload, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := json.Marshal(recordHeader{
			Schema: RecordSchema, Hash: h, SimVersion: sim.Version,
			PayloadSHA256: payloadDigest(payload), Spec: specs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		path := st.objectPath(h)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(append(append(hdr, '\n'), payload...), '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := st.Get(h)
		if err != nil || rec == nil {
			t.Fatalf("%s: Get = (%v, %v), want a hit", specs[i].Name(), rec, err)
		}
		var want telemetry.Report
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*rec.Report, want) || rec.Spec != specs[i] {
			t.Errorf("%s: Get returned a different record", specs[i].Name())
		}
	}
}

// TestStoreUndecodablePayloadIsCorrupt seals payloads that are valid JSON
// for the report but not its canonical encoding under matching digests.
// Each reads as a miss that fires the corruption hook once, and the next
// Put replaces it.
func TestStoreUndecodablePayloadIsCorrupt(t *testing.T) {
	spec := JobSpec{Workload: "vecsum", Frames: 4}
	h := mustHash(t, spec)
	canonical, err := json.Marshal(fakeReport(spec))
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(canonical, &fields); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{"indented": indented.Bytes(), "sorted keys": sorted} {
		t.Run(name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(&Record{Hash: h, Spec: spec, Report: fakeReport(spec)}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(st.objectPath(h))
			if err != nil {
				t.Fatal(err)
			}
			line, stored, _ := bytes.Cut(data, []byte{'\n'})
			line = bytes.Replace(line, []byte(payloadDigest(bytes.TrimSuffix(stored, []byte{'\n'}))), []byte(payloadDigest(payload)), 1)
			if err := os.WriteFile(st.objectPath(h), append(append(append(line, '\n'), payload...), '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			var details []string
			st.SetOnCorrupt(func(hash, detail string) { details = append(details, detail) })
			if rec, err := st.Get(h); err != nil || rec != nil {
				t.Errorf("Get = (%v, %v), want a miss", rec, err)
			}
			if len(details) != 1 || !strings.Contains(details[0], "does not decode") {
				t.Errorf("corruption hook calls: %q, want one naming the decode failure", details)
			}
			if err := st.Put(&Record{Hash: h, Spec: spec, Report: fakeReport(spec)}); err != nil {
				t.Fatal(err)
			}
			if rec, err := st.Get(h); err != nil || rec == nil {
				t.Errorf("Get after Put = (%v, %v), want a hit", rec, err)
			}
			if len(details) != 1 {
				t.Errorf("replaced object still reported corrupt: %q", details)
			}
		})
	}
}
