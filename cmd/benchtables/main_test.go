package main

import "testing"

func TestSingleTable(t *testing.T) {
	if err := run([]string{"-table", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-table", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestNarrativeTables(t *testing.T) {
	if err := run([]string{"-table", "errors", "-datasets", "Cybersecurity"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-table", "boundaries", "-datasets", "Cybersecurity"}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	if err := run([]string{"-table", "99", "-datasets", "Cybersecurity"}); err == nil {
		t.Error("unknown table should fail")
	}
	if err := run([]string{"-datasets", "nope"}); err == nil {
		t.Error("unknown dataset should fail")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag should fail")
	}
}
