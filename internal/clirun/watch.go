package clirun

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hyperhammer/internal/runartifact"
)

// Watch is the live view hh-top and hh-plan share: each frame fetches
// the sections Tool renders from an obs server's /api/<name>
// endpoints and draws them under Header's lines with the renderers
// the tool uses for a saved artifact.
type Watch struct {
	Tool, URL  string // URL's scheme is optional
	Interval   time.Duration
	Iterations int  // frames to draw (0: until interrupted)
	Width      int  // chart columns (0: the renderer's default)
	Plain      bool // append frames instead of repainting the screen
	// Header returns a frame's first lines; get fetches any other
	// endpoint of the server at base.
	Header func(base string, get func(path string, v any) error) (string, error)
}

// Run draws frames to w until Iterations is reached or a fetch fails.
func (wt Watch) Run(w io.Writer) error {
	base := strings.TrimRight(wt.URL, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string, v any) error {
		resp, err := client.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", base+path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return fmt.Errorf("GET %s: decoding: %w", base+path, err)
		}
		return nil
	}
	for i := 0; ; i++ {
		var a runartifact.Artifact
		for _, s := range runartifact.View(wt.Tool) {
			if err := get("/api/"+s.Name, s.Field(&a)); err != nil {
				return err
			}
		}
		head, err := wt.Header(base, get)
		if err != nil {
			return err
		}
		if !wt.Plain {
			fmt.Fprint(w, "\x1b[2J\x1b[H") // clear, home, redraw
		}
		fmt.Fprint(w, head)
		if err := a.Render(w, wt.Tool, wt.Width); err != nil {
			return err
		}
		if wt.Iterations > 0 && i+1 >= wt.Iterations {
			return nil
		}
		time.Sleep(wt.Interval)
	}
}
