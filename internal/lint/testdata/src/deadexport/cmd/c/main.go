// Command c is a caller outside internal/.
package main

import (
	"fmt"

	"deadexport"
	"deadexport/internal/b"
)

func main() { fmt.Println(b.Measure(b.New()), b.New(), deadexport.Facade()) }
