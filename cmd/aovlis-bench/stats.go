package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the nearest-rank
// method: the smallest sample with at least q of the samples at or below
// it. It never interpolates, so every reported value was observed.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the mean of the middle pair for an even count, so that an
// even number of repeats does not favour the slower one.
func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// scrape is one Prometheus text exposition: series (name with its label
// set, exactly as exposed) → value.
type scrape map[string]float64

// parseProm reads the text exposition format the daemons serve: comment
// lines start with '#', every other line is "series value".
func parseProm(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q", line)
		}
		s[strings.TrimSpace(line[:i])] = v
	}
	return s, sc.Err()
}

func scrapeURL(url string) (scrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// histMean is a histogram's mean observation (0 when it saw none).
func (s scrape) histMean(name string) float64 {
	if n := s[name+"_count"]; n > 0 {
		return s[name+"_sum"] / n
	}
	return 0
}

// merge adds another process's scrape into s.
func (s scrape) merge(o scrape) {
	for k, v := range o {
		s[k] += v
	}
}
