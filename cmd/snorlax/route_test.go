package main

import (
	"reflect"
	"testing"

	"snorlax/internal/shard"
)

// TestParseMembers pins the -shards flag grammar: every operator-typed
// spelling of a member list must land on the same Member values.
func TestParseMembers(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec string
		want []shard.Member
		err  bool
	}{
		{
			name: "named",
			spec: "s0=127.0.0.1:7101,s1=127.0.0.1:7102",
			want: []shard.Member{
				{Name: "s0", Addr: "127.0.0.1:7101"},
				{Name: "s1", Addr: "127.0.0.1:7102"},
			},
		},
		{
			name: "bare addr names itself",
			spec: "127.0.0.1:7101",
			want: []shard.Member{{Name: "127.0.0.1:7101", Addr: "127.0.0.1:7101"}},
		},
		{
			name: "health url",
			spec: "s0=127.0.0.1:7101;http://127.0.0.1:7201/readyz",
			want: []shard.Member{{
				Name:      "s0",
				Addr:      "127.0.0.1:7101",
				HealthURL: "http://127.0.0.1:7201/readyz",
			}},
		},
		{
			name: "whitespace and empty entries skipped",
			spec: " s0=127.0.0.1:7101 , ,s1=127.0.0.1:7102,",
			want: []shard.Member{
				{Name: "s0", Addr: "127.0.0.1:7101"},
				{Name: "s1", Addr: "127.0.0.1:7102"},
			},
		},
		{name: "empty spec", spec: "", err: true},
		{name: "name without address", spec: "s0=", err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseMembers(tc.spec)
			if tc.err {
				if err == nil {
					t.Fatalf("parseMembers(%q) = %v, want error", tc.spec, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseMembers(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parseMembers(%q) = %+v, want %+v", tc.spec, got, tc.want)
			}
		})
	}
}
