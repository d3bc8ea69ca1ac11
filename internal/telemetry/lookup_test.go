package telemetry

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// oldKey is the identity builder lookups used before appendKey, kept as
// the oracle: the text of a key is what WriteText prints, so it must not
// move.
func oldKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labels[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// identities is a table of metric names and label lists: none, one and
// three pairs, an odd trailing label, an empty value, and one value long
// enough to spill the lookup's stack buffer.
var identities = []struct {
	name   string
	labels []string
}{
	{"legion_plain_total", nil},
	{"legion_orb_client_seconds", []string{"method", "make_reservation"}},
	{"legion_enactor_rounds", []string{"domain", "uva", "class", "Worker", "outcome", "granted"}},
	{"legion_odd", []string{"k", "v", "dangling"}},
	{"legion_empty_value", []string{"k", ""}},
	{"legion_long", []string{"path", strings.Repeat("x", 200)}},
}

// TestRegistryLookupAllocates: a lookup that hits allocates nothing, and
// what it looks up is the series the old key named.
func TestRegistryLookupAllocates(t *testing.T) {
	t.Run("hit", lookupHit)
	t.Run("golden", writeTextGolden)
}

func lookupHit(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	r := NewRegistry()
	for _, id := range identities {
		c := r.Counter(id.name, id.labels...)
		g := r.Gauge(id.name, id.labels...)
		h := r.Histogram(id.name, SizeBuckets, id.labels...)
		want := oldKey(id.name, id.labels)
		if got := string(appendKey(nil, id.name, id.labels)); got != want {
			t.Errorf("appendKey = %q, the old key was %q", got, want)
		}
		if r.counters[want] != c || r.gauges[want] != g || r.hists[want] != h {
			t.Errorf("%s: not stored under the old key text %q", id.name, want)
		}
		// The same handle comes back, whatever the key's length.
		if r.Counter(id.name, id.labels...) != c || r.Gauge(id.name, id.labels...) != g ||
			r.Histogram(id.name, SizeBuckets, id.labels...) != h {
			t.Errorf("%s: a second lookup minted a second series", id.name)
		}
		c.Inc()
		if r.CounterValue(id.name, id.labels...) != 1 {
			t.Errorf("%s: CounterValue missed the series", id.name)
		}
		if len(want) > keyBufLen {
			continue // spills to the heap by design
		}
		labels := id.labels
		if n := testing.AllocsPerRun(100, func() {
			r.Counter(id.name, labels...).Inc()
			r.Gauge(id.name, labels...).Set(1)
			r.Histogram(id.name, SizeBuckets, labels...).Observe(1)
			_ = r.CounterValue(id.name, labels...)
			_ = r.GaugeValue(id.name, labels...)
		}); n != 0 {
			t.Errorf("%s with %d labels: a lookup that hits allocates %.1f times", id.name, len(labels)/2, n)
		}
	}
}

// populate fills a registry with fixed values under every identity.
func populate(r *Registry) {
	for i, id := range identities {
		r.Counter(id.name, id.labels...).Add(int64(i + 1))
		r.Gauge(id.name, id.labels...).Set(int64(10 * (i + 1)))
		h := r.Histogram(id.name, SizeBuckets, id.labels...)
		for _, v := range []float64{0, 1, 7, 40, 5000} {
			h.Observe(v * float64(i+1))
		}
	}
}

// writeTextGolden: testdata/write_text.golden was written by the
// registry as it stood when lookups built their keys with oldKey; the
// dump must stay byte-identical.
func writeTextGolden(t *testing.T) {
	r := NewRegistry()
	populate(r)
	var got bytes.Buffer
	r.WriteText(&got)
	want, err := os.ReadFile("testdata/write_text.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("WriteText moved:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
