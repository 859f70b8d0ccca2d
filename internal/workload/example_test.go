package workload_test

import (
	"fmt"

	"highrpm/internal/workload"
)

// ExampleFind looks up one of the 96 evaluation workloads.
func ExampleFind() {
	b, err := workload.Find("HPCC/STREAM")
	if err != nil {
		panic(err)
	}
	fmt.Println(b.Suite, b.Name)
	// Output: HPCC STREAM
}
