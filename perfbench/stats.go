package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one timed interval the benchmark recorded around a call into the
// program. Item names the instance or job the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Item   string `json:"item,omitempty"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct{ list []span }

// add records a span and returns its ID.
func (l *spanLog) add(parent int, name, item string, start, end time.Time) int {
	return l.addNS(parent, name, item, start.UnixNano(), end.UnixNano())
}

func (l *spanLog) addNS(parent int, name, item string, start, end int64) int {
	id := len(l.list) + 1
	l.list = append(l.list, span{ID: id, Parent: parent, Name: name, Item: item, Start: start, End: end})
	return id
}

// selfTime returns the duration of span id minus the part of it covered
// by its child spans (children may overlap one another, as concurrent jobs
// do).
func (l *spanLog) selfTime(id int) float64 {
	s := l.list[id-1]
	var cs []span
	for _, c := range l.list {
		if c.Parent == id {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered, lo, hi int64
	for _, c := range cs {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b <= a {
			continue
		}
		if a > hi {
			covered += hi - lo
			lo, hi = a, b
		} else if b > hi {
			hi = b
		}
	}
	covered += hi - lo
	return float64(s.End-s.Start-covered) / 1e9
}

// write stores the spans as JSON Lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.list {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
