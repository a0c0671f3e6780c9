// Command c is a caller outside internal/.
package main

import (
	"fmt"

	"deadexport/internal/b"
)

func main() { fmt.Println(b.Measure(b.New()), b.New()) }
