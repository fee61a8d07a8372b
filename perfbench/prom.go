package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// promSample is one sample line of a Prometheus text scrape.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed Prometheus text exposition, keyed by the series text
// (name plus rendered labels) so two scrapes of one registry align.
type scrape map[string]promSample

// scrapeRegistry renders reg in Prometheus text format and parses it back:
// the bench reads the daemons through their public export, exactly as an
// operator's scraper would.
func scrapeRegistry(reg *telemetry.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(buf.String())
}

// parseProm parses Prometheus text format 0.0.4 sample lines; comment and
// blank lines are skipped.
func parseProm(text string) (scrape, error) {
	out := scrape{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		key, valText := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %v", line, err)
		}
		s := promSample{name: key, labels: map[string]string{}, value: v}
		if open := strings.IndexByte(key, '{'); open >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("prom: unterminated labels in %q", line)
			}
			s.name = key[:open]
			if err := parseLabels(key[open+1:len(key)-1], s.labels); err != nil {
				return nil, fmt.Errorf("prom: %q: %v", line, err)
			}
		}
		out[key] = s
	}
	return out, nil
}

// parseLabels parses `k="v",k2="v2"` with the exposition format's escapes.
func parseLabels(text string, into map[string]string) error {
	for text != "" {
		eq := strings.IndexByte(text, '=')
		if eq < 0 || eq+1 >= len(text) || text[eq+1] != '"' {
			return fmt.Errorf("malformed label set")
		}
		k := text[:eq]
		var v strings.Builder
		i := eq + 2
		for ; i < len(text) && text[i] != '"'; i++ {
			if text[i] == '\\' && i+1 < len(text) {
				i++
				switch text[i] {
				case 'n':
					v.WriteByte('\n')
				default:
					v.WriteByte(text[i])
				}
				continue
			}
			v.WriteByte(text[i])
		}
		if i >= len(text) {
			return fmt.Errorf("unterminated label value")
		}
		into[k] = v.String()
		text = strings.TrimPrefix(text[i+1:], ",")
	}
	return nil
}

// promDelta is what changed between two scrapes of one registry. Counter
// and histogram series subtract; a series absent from the earlier scrape
// counts from zero. Cumulative histogram buckets are kept per series so
// bucket counts can be rebuilt (see histCumulative).
type promDelta struct {
	before, after scrape
}

// matches reports whether s belongs to family name and carries every label
// in want.
func matches(s promSample, name string, want map[string]string) bool {
	if s.name != name {
		return false
	}
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum returns the summed increase of every series of family name whose
// labels include want (a counter, or a histogram's _sum / _count).
func (d promDelta) sum(name string, want map[string]string) float64 {
	var total float64
	for key, s := range d.after {
		if !matches(s, name, want) {
			continue
		}
		total += s.value - d.before[key].value
	}
	return total
}

// histAtMost counts the observations of at most le recorded between the
// scrapes, over every matching series of every delta in ds.
func histAtMost(ds []promDelta, name string, want map[string]string, le float64) float64 {
	_, cum := histCumulative(ds, name, want)
	return cum(le)
}

// histCumulative rebuilds a histogram family's observations between the
// scrapes, summed over every matching series of every delta in ds (the
// daemons of one deployment share a bucket layout, so their counts add):
// the bucket bounds seen, ascending, and the cumulative count at a bound.
// The exposition lists cumulative counts only at non-empty bounds, so a
// series' count at an unlisted bound is its count at the nearest listed
// bound below it.
func histCumulative(ds []promDelta, name string, want map[string]string) ([]float64, func(le float64) float64) {
	type bucket struct {
		le  float64
		cum float64
	}
	// Group each scrape's bucket lines by registry and series (labels
	// without le).
	collect := func(i int, sc scrape, into map[string][]bucket) {
		for _, s := range sc {
			if !matches(s, name+"_bucket", want) {
				continue
			}
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue
			}
			id := fmt.Sprint(i, "|", seriesID(s))
			into[id] = append(into[id], bucket{le, s.value})
		}
	}
	before, after := map[string][]bucket{}, map[string][]bucket{}
	for i, d := range ds {
		collect(i, d.before, before)
		collect(i, d.after, after)
	}
	bounds := map[float64]bool{}
	for _, sc := range []map[string][]bucket{before, after} {
		for _, bs := range sc {
			sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
			for _, b := range bs {
				bounds[b.le] = true
			}
		}
	}
	les := make([]float64, 0, len(bounds))
	for le := range bounds {
		les = append(les, le)
	}
	sort.Float64s(les)
	cumAt := func(bs []bucket, le float64) float64 {
		var c float64
		for _, b := range bs {
			if b.le > le {
				break
			}
			c = b.cum
		}
		return c
	}
	return les, func(le float64) float64 {
		var c float64
		for id, bs := range after {
			c += cumAt(bs, le) - cumAt(before[id], le)
		}
		return c
	}
}

// seriesID renders a sample's labels without "le", identifying the
// histogram series a bucket line belongs to.
func seriesID(s promSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, s.labels[k])
	}
	return b.String()
}
