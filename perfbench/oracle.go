package main

import (
	"fmt"
	"slices"
)

// verdict is the set-up reference for one program: the error sites any
// engine must report (Theorem 3.1: the hybrid and top-down engines agree
// wherever top-down completes), the sites that seeded concrete executions
// reach (soundness: each must be reported), and the reference run's result
// tables digest.
type verdict struct {
	Sites    []string
	Concrete []string
	Digest   string
}

// check compares a reported error-site list against the reference. Any
// difference is a wrong verdict.
func (v verdict) check(got []string) error {
	sorted := slices.Clone(got)
	slices.Sort(sorted)
	if !slices.Equal(sorted, v.Sites) {
		return fmt.Errorf("error sites %v, reference %v", sorted, v.Sites)
	}
	for _, s := range v.Concrete {
		if !slices.Contains(sorted, s) {
			return fmt.Errorf("concrete error at %s is missing from the report %v", s, sorted)
		}
	}
	return nil
}

// checkIsError compares an isError answer for site against the reference.
func (v verdict) checkIsError(site string, reachable bool) error {
	if want := slices.Contains(v.Sites, site); reachable != want {
		return fmt.Errorf("isError(%s) = %t, reference %t", site, reachable, want)
	}
	return nil
}

// checkDigest compares a result tables digest against the reference's.
func (v verdict) checkDigest(got string) error {
	if got != v.Digest {
		return fmt.Errorf("tables digest %.12s, reference %.12s", got, v.Digest)
	}
	return nil
}
