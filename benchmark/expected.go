package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// expected is expected_verdicts.json: the hand-written answers every
// verdict the benchmark sees is checked against.
type expected struct {
	Models     []string            `json:"models"`
	OK         []string            `json:"ok"`
	Litmus     map[string][]string `json:"litmus"`
	StudyCases []studyCase         `json:"study_cases"`
	Optimize   map[string]string   `json:"optimize"`
}

type studyCase struct {
	Flag    string `json:"flag"`
	Name    string `json:"name"`
	Verdict string `json:"verdict"`
}

func loadExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var x expected
	if err := json.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for name, vs := range x.Litmus {
		if len(vs) != len(x.Models) {
			return nil, fmt.Errorf("%s: %s lists %d outcomes for %d models", path, name, len(vs), len(x.Models))
		}
	}
	return &x, nil
}

// rung is the "/t<threads>-i<iters>" suffix of a generated client's name.
var rung = regexp.MustCompile(`/t\d+-i\d+$`)

// verdict returns the expected label of one cell ("ok", "forbidden",
// "ALLOWED"), or "" for a cell the file does not know.
func (x *expected) verdict(cell, model string) string {
	if vs, ok := x.Litmus[cell]; ok {
		for i, m := range x.Models {
			if m == model {
				return vs[i]
			}
		}
		return ""
	}
	base := rung.ReplaceAllString(cell, "")
	for _, name := range x.OK {
		if name == base {
			return "ok"
		}
	}
	return ""
}

// suiteCells is the size of the default suite corpus the file describes.
func (x *expected) suiteCells() int {
	return (len(x.OK) + len(x.Litmus)) * len(x.Models)
}
