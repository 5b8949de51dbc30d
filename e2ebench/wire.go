package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/server/batchcodec"
)

// The client side of ftbfsd's two batch protocols: request encoding, and
// response checks cheap enough for every batch plus full decoding for the
// batches whose answers are verified.

// answer is one decoded item result. dist is -1 when the target is
// unreachable; path and dists are set for route and whole-table items.
type answer struct {
	err   bool
	dist  int32
	dists []int32
	path  []int32
}

// encodeBinary returns the batchcodec request frame for items.
func encodeBinary(b *batchcodec.RequestBuilder, items []item) []byte {
	b.Reset()
	for _, it := range items {
		bi := batchcodec.Item{Source: source, Target: it.target, Flags: uint32(it.nf)}
		bi.Fault0, bi.Fault1 = uint32(it.faults[0]), uint32(it.faults[1])
		switch it.kind {
		case kindDists:
			bi.Flags |= batchcodec.FlagAllDists
			bi.Target = 0
		case kindRoute:
			bi.Flags |= batchcodec.FlagRoute
		}
		b.Add(bi)
	}
	return b.Frame()
}

// appendJSON appends the JSON batch request for items.
func appendJSON(buf []byte, items []item) []byte {
	buf = append(buf, `{"queries":[`...)
	for i, it := range items {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"source":`...)
		buf = strconv.AppendInt(buf, source, 10)
		if it.kind != kindDists {
			buf = append(buf, `,"target":`...)
			buf = strconv.AppendInt(buf, int64(it.target), 10)
		}
		buf = append(buf, `,"faults":[`...)
		for j := 0; j < int(it.nf); j++ {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(it.faults[j]), 10)
		}
		buf = append(buf, ']')
		if it.kind == kindRoute {
			buf = append(buf, `,"route":true`...)
		}
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// checkBinary validates a batchcodec response of n records and counts
// in-band item errors; with capture it also decodes every answer.
func checkBinary(body []byte, n int, capture bool) (answers []answer, failed int, err error) {
	resp, err := batchcodec.DecodeResponse(body)
	if err != nil {
		return nil, 0, err
	}
	if resp.Len() != n {
		return nil, 0, fmt.Errorf("response has %d records, want %d", resp.Len(), n)
	}
	it := resp.Iter()
	for it.Next() {
		rec := it.Record()
		if rec.Err() != batchcodec.ErrNone {
			failed++
			if capture {
				answers = append(answers, answer{err: true})
			}
			continue
		}
		if !capture {
			continue
		}
		a := answer{dist: rec.Dist}
		if !rec.Reachable() {
			a.dist = -1
		}
		vals := make([]int32, it.ValueLen())
		for j := range vals {
			vals[j] = int32(it.Value(j))
		}
		switch {
		case rec.Flags&batchcodec.RecHasPath != 0:
			a.path = vals
		case rec.Flags&batchcodec.RecHasDists != 0:
			a.dists = vals
		}
		answers = append(answers, a)
	}
	return answers, failed, nil
}

var (
	jsonPrefix = []byte(`{"results":[`)
	jsonSuffix = []byte("]}\n")
	jsonErrKey = []byte(`"error":`)
)

// checkJSON validates a JSON batch response of n results and counts
// in-band item errors. Without capture it only frames the body and counts
// error keys, so the client does not spend a CPU decoding tables the
// server is being timed on; with capture it decodes every answer.
func checkJSON(body []byte, n int, capture bool) (answers []answer, failed int, err error) {
	if !bytes.HasPrefix(body, jsonPrefix) || !bytes.HasSuffix(body, jsonSuffix) {
		return nil, 0, fmt.Errorf("malformed batch response (%d bytes)", len(body))
	}
	if !capture {
		return nil, bytes.Count(body, jsonErrKey), nil
	}
	var resp struct {
		Results []struct {
			Dist      *int32  `json:"dist"`
			Reachable *bool   `json:"reachable"`
			Dists     []int32 `json:"dists"`
			Path      []int32 `json:"path"`
			Error     string  `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, fmt.Errorf("decode batch response: %w", err)
	}
	if len(resp.Results) != n {
		return nil, 0, fmt.Errorf("response has %d results, want %d", len(resp.Results), n)
	}
	for _, r := range resp.Results {
		if r.Error != "" {
			failed++
			answers = append(answers, answer{err: true})
			continue
		}
		a := answer{dist: -1, dists: r.Dists, path: r.Path}
		if r.Dist != nil && (r.Reachable == nil || *r.Reachable) {
			a.dist = *r.Dist
		}
		answers = append(answers, a)
	}
	return answers, failed, nil
}
