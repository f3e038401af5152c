package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"localwm/internal/family"
	"localwm/lwmapi"
)

// serverJSON encodes v exactly as lwmd writes a response body.
func serverJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checker computes, once per distinct request, the answer the
// sequential reference gives — the family Protocol with one worker —
// and compares every response against it.
type checker struct {
	w     *Workload
	texts map[string]string // ref -> canonical design text
	mu    sync.Mutex
	want  map[string][32]byte             // op key -> reference response hash
	pairs map[string]lwmapi.DetectOutcome // suspect×record -> outcome
}

func newChecker(w *Workload) *checker {
	c := &checker{w: w, texts: w.Texts, want: map[string][32]byte{},
		pairs: map[string]lwmapi.DetectOutcome{}}
	for k, h := range w.Known {
		c.want[k] = h
	}
	return c
}

func (c *checker) designText(inline, ref string) (string, error) {
	if ref == "" {
		return inline, nil
	}
	t, ok := c.texts[ref]
	if !ok {
		return "", fmt.Errorf("reference: unknown design ref %s", ref)
	}
	return t, nil
}

// reference answers op through the sequential reference.
func (c *checker) reference(op *Op) ([]byte, error) {
	ctx := context.Background()
	proto, err := family.Lookup(op.Family)
	if err != nil {
		return nil, err
	}
	p := markParams
	proto.Normalize(&p)
	switch op.Kind {
	case kindEmbed, kindJob:
		text, err := c.designText(op.Embed.Design, op.Embed.DesignRef)
		if err != nil {
			return nil, err
		}
		d, err := proto.ParseDesign(text)
		if err != nil {
			return nil, err
		}
		resp, err := proto.Embed(ctx, d, op.Embed.Signature, p, 1)
		if err != nil {
			return nil, err
		}
		return serverJSON(resp)
	case kindVerify:
		text, err := c.designText(op.Verify.Design, op.Verify.DesignRef)
		if err != nil {
			return nil, err
		}
		d, err := proto.ParseDesign(text)
		if err != nil {
			return nil, err
		}
		sol, err := proto.ParseSolution(d, op.Verify.Schedule)
		if err != nil {
			return nil, err
		}
		resp, err := proto.Verify(ctx, family.Suspect{Design: d, Solution: sol, Shared: op.Verify.DesignRef != ""},
			op.Verify.Signature, p, 1)
		if err != nil {
			return nil, err
		}
		return serverJSON(resp)
	case kindDetect:
		resp := &lwmapi.DetectResponse{Results: make([][]lwmapi.DetectOutcome, len(op.Detect.Suspects))}
		for i, s := range op.Detect.Suspects {
			resp.Results[i] = make([]lwmapi.DetectOutcome, len(op.Detect.Records))
			for j, rec := range op.Detect.Records {
				out, err := c.pair(proto, s, rec)
				if err != nil {
					return nil, err
				}
				resp.Results[i][j] = out
				if out.Found {
					resp.Detected++
				}
			}
		}
		return serverJSON(resp)
	case kindPut:
		resp := lwmapi.PutDesignResponse{Ref: op.Put.Ref, Bytes: len(op.Put.Text), Nodes: op.Put.Nodes,
			Family: familyField(op.Put.Family)}
		return json.Marshal(resp)
	}
	return nil, fmt.Errorf("reference: unknown kind %q", op.Kind)
}

// pair scans one record in one suspect; a batch's cells are independent
// of each other, so the reference caches them across batches.
func (c *checker) pair(proto family.Protocol, s lwmapi.Suspect, rec lwmapi.Record) (lwmapi.DetectOutcome, error) {
	raw, err := json.Marshal(struct {
		S lwmapi.Suspect
		R lwmapi.Record
	}{s, rec})
	if err != nil {
		return lwmapi.DetectOutcome{}, err
	}
	sum := sha256.Sum256(raw)
	key := string(sum[:])
	c.mu.Lock()
	out, ok := c.pairs[key]
	c.mu.Unlock()
	if ok {
		return out, nil
	}
	text, err := c.designText(s.Design, s.DesignRef)
	if err != nil {
		return out, err
	}
	d, err := proto.ParseDesign(text)
	if err != nil {
		return out, err
	}
	sol, err := proto.ParseSolution(d, s.Schedule)
	if err != nil {
		return out, err
	}
	resp, err := proto.Detect(context.Background(),
		[]family.Suspect{{Design: d, Solution: sol, Shared: s.DesignRef != ""}}, []lwmapi.Record{rec}, 1)
	if err != nil {
		return out, err
	}
	out = resp.Results[0][0]
	c.mu.Lock()
	c.pairs[key] = out
	c.mu.Unlock()
	return out, nil
}

// prepare computes the reference answer of every distinct op, on every
// CPU (nothing is being timed).
func (c *checker) prepare(ops []*Op) error {
	seen := map[string]*Op{}
	var todo []*Op
	for _, op := range ops {
		k := refKey(op)
		if _, ok := c.want[k]; ok {
			continue
		}
		if _, ok := seen[k]; !ok {
			seen[k] = op
			todo = append(todo, op)
		}
	}
	hashes := make([][32]byte, len(todo))
	err := parallelMap(len(todo), func(i int) error {
		body, err := c.reference(todo[i])
		if err != nil {
			return fmt.Errorf("reference %s: %w", todo[i].Kind, err)
		}
		hashes[i] = sha256.Sum256(body)
		return nil
	})
	if err != nil {
		return err
	}
	for i, op := range todo {
		c.want[refKey(op)] = hashes[i]
	}
	return nil
}

// refKey folds a job onto the sync embed of the same request: the
// job's stored result must equal the sync answer byte for byte.
func refKey(op *Op) string {
	if op.Kind == kindJob {
		return opKey(kindEmbed, op.Embed)
	}
	return op.Key
}

// verdict is the outcome of checking one run's responses.
type verdict struct {
	Checked    int      `json:"checked"`
	Mismatches []string `json:"mismatches,omitempty"`
	Digest     string   `json:"response_digest,omitempty"`
	DigestOps  int      `json:"digest_requests,omitempty"`
}

// check compares every successful response with the reference and
// digests the answers to the fixed requests digest names (see
// Workload.digestOps): the reference's answer, which every response to
// the same request was checked against. The set depends on the seed
// only, so two runs or two commits compare outputs however many
// requests each completed.
func (c *checker) check(rs []*result, digest []*Op) (*verdict, error) {
	ops := append([]*Op(nil), digest...)
	for _, r := range rs {
		ops = append(ops, r.op)
	}
	if err := c.prepare(ops); err != nil {
		return nil, err
	}
	v := &verdict{}
	for _, r := range rs {
		if r.err != nil {
			continue
		}
		v.Checked++
		k := refKey(r.op)
		want := c.want[k]
		if r.hash != want {
			v.Mismatches = append(v.Mismatches, fmt.Sprintf("%s #%d (%s): response differs from the sequential reference",
				r.op.Kind, r.idx, k))
		}
		if r.semErr != "" {
			v.Mismatches = append(v.Mismatches, fmt.Sprintf("%s #%d: %s", r.op.Kind, r.idx, r.semErr))
		}
	}
	if len(digest) > 0 {
		keys := map[string]bool{}
		for _, op := range digest {
			keys[refKey(op)] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		h := sha256.New()
		for _, k := range sorted {
			fmt.Fprintf(h, "%s %x\n", k, c.want[k])
		}
		v.Digest = hex.EncodeToString(h.Sum(nil))
		v.DigestOps = len(sorted)
	}
	if len(v.Mismatches) > 8 {
		v.Mismatches = append(v.Mismatches[:8], fmt.Sprintf("... %d more", len(v.Mismatches)-8))
	}
	return v, nil
}
