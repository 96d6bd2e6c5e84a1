package server

import "net/http"

// Dashboard returns the /debug/sweep handler: a self-contained HTML page
// that polls the jobs API for the job list and follows the selected job's
// SSE stream, rendering the per-spec state grid (queued → running →
// done/cached/failed), live blocks/sec, and per-spec durations — so a long
// sweep renders progressively instead of going dark until aggregation.
//
// The page is static: all data flows through the same public endpoints a
// curl user sees (GET /v1/jobs, GET /v1/jobs/{id}, and the events stream),
// so the dashboard adds no server state and no extra locking.
func (s *Server) Dashboard() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(dashboardHTML))
	})
}

const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>thermod sweep dashboard</title>
<style>
  :root { color-scheme: light dark; }
  body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 1.5rem; max-width: 72rem; }
  h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; margin: 1.2rem 0 .4rem; }
  table { border-collapse: collapse; }
  td, th { padding: .15rem .6rem; text-align: left; border-bottom: 1px solid #8884; }
  tr.sel { outline: 2px solid #08f8; cursor: pointer; }
  tr.job { cursor: pointer; }
  #grid { display: grid; grid-template-columns: repeat(auto-fill, 16px); gap: 2px; }
  #grid div { width: 16px; height: 16px; border-radius: 3px; background: #8883; }
  .queued   { background: #8883 !important; }
  .started  { background: #e6a700 !important; }
  .done     { background: #2da44e !important; }
  .cached   { background: #1f7fd1 !important; }
  .failed, .invalid { background: #d1242f !important; }
  .canceled { background: #6e40c9 !important; }
  #bar { height: 6px; background: #8883; border-radius: 3px; margin: .4rem 0; max-width: 40rem; }
  #bar div { height: 100%; background: #2da44e; border-radius: 3px; width: 0; }
  #stats { color: #888; }
  .legend span { display: inline-block; width: 12px; height: 12px; border-radius: 3px;
                 margin: 0 .25rem 0 .8rem; vertical-align: -1px; }
</style>
</head>
<body>
<h1>thermod sweep dashboard</h1>
<div class="legend">queued<span class="queued"></span> running<span class="started"></span>
done<span class="done"></span> cached<span class="cached"></span>
failed<span class="failed"></span> canceled<span class="canceled"></span></div>
<h2>jobs</h2>
<table id="jobs"><thead><tr>
<th>id</th><th>state</th><th>specs</th><th>failed</th><th>submitted</th>
</tr></thead><tbody></tbody></table>
<h2 id="title">no job selected</h2>
<div id="bar"><div></div></div>
<div id="stats"></div>
<div id="grid"></div>
<h2 id="hqtitle" hidden>hint quality</h2>
<table id="hq" hidden><thead><tr>
<th>spec</th><th>trace</th><th>policy</th><th>coverage</th><th>accuracy</th>
<th>over</th><th>under</th><th>drift</th>
</tr></thead><tbody></tbody></table>
<table id="log"><tbody></tbody></table>
<script>
let selected = null, source = null, cells = [];

// All event/job fields render through textContent (never innerHTML):
// p.error echoes submitter-controlled spec text, so interpolating it as
// markup would be stored XSS for anyone viewing this page.
function rowOf(texts, classes) {
  const tr = document.createElement('tr');
  texts.forEach((t, i) => {
    const td = document.createElement('td');
    td.textContent = t;
    if (classes && classes[i]) td.className = classes[i];
    tr.appendChild(td);
  });
  return tr;
}

async function refreshJobs() {
  const res = await fetch('/v1/jobs');
  if (!res.ok) return;
  const jobs = await res.json();
  const tbody = document.querySelector('#jobs tbody');
  tbody.innerHTML = '';
  for (const j of jobs) {
    const tr = rowOf([j.id, j.state, j.specs, j.failed || 0, j.submitted_at],
      [null, j.state]);
    tr.className = 'job' + (j.id === selected ? ' sel' : '');
    tr.onclick = () => select(j.id);
    tbody.appendChild(tr);
  }
  // Auto-follow: with nothing selected, attach to the most recent job.
  if (!selected && jobs.length) select(jobs[jobs.length - 1].id);
}

async function select(id) {
  if (source) { source.close(); source = null; }
  selected = id;
  document.getElementById('title').textContent = id;
  document.querySelector('#log tbody').innerHTML = '';
  const res = await fetch('/v1/jobs/' + id);
  if (!res.ok) return;
  const job = await res.json();
  const grid = document.getElementById('grid');
  grid.innerHTML = '';
  cells = [];
  for (let i = 0; i < job.specs.length; i++) {
    const d = document.createElement('div');
    d.title = 'spec ' + i + ': ' + (job.specs[i].policy || 'lru') + ' / ' +
      (job.specs[i].app || job.specs[i].suite);
    grid.appendChild(d);
    cells.push(d);
  }
  renderHintQual(job);
  source = new EventSource('/v1/jobs/' + id + '/events');
  source.addEventListener('progress', e => applyProgress(JSON.parse(e.data)));
  source.addEventListener('state', e => applyState(JSON.parse(e.data)));
  source.addEventListener('end', () => { source.close(); source = null; });
}

// renderHintQual lists the hint-quality audit summaries of a finished job's
// results (specs submitted with "hintqual": true). Same textContent-only
// discipline as the rest of the page.
function renderHintQual(job) {
  const rows = [];
  (job.results || []).forEach((r, i) => {
    const hq = r.outcome && r.outcome.hintqual;
    if (!hq) return;
    rows.push([i, r.outcome.trace, r.spec.policy || 'lru',
      (100 * hq.coverage_accesses).toFixed(1) + '%',
      (100 * hq.accuracy_branches).toFixed(1) + '%',
      hq.over_predicted, hq.under_predicted,
      hq.drift_epochs + '/' + hq.windows + ' windows']);
  });
  const table = document.getElementById('hq');
  const title = document.getElementById('hqtitle');
  table.hidden = title.hidden = rows.length === 0;
  const tbody = table.querySelector('tbody');
  tbody.innerHTML = '';
  rows.forEach(cells => tbody.appendChild(rowOf(cells)));
}

function applyState(ev) {
  logLine(ev.time, 'job ' + ev.state);
  // Results (and their hint-quality summaries) land with the terminal state.
  if ((ev.state === 'done' || ev.state === 'canceled') && selected) {
    fetch('/v1/jobs/' + selected).then(r => r.ok ? r.json() : null)
      .then(job => { if (job && job.id === selected) renderHintQual(job); });
  }
}

function applyProgress(ev) {
  const p = ev.progress;
  if (!p || !cells[p.index]) return;
  let cls = p.state;
  if (p.state === 'done' && p.cached) cls = 'cached';
  cells[p.index].className = cls;
  if (p.state !== 'started') {
    const pct = p.total ? (100 * p.done / p.total) : 0;
    document.querySelector('#bar div').style.width = pct.toFixed(1) + '%';
    let line = 'spec ' + p.index + ' ' + cls;
    if (p.duration_ms) line += ' in ' + p.duration_ms.toFixed(1) + ' ms';
    if (p.blocks_per_sec) line += ' @ ' + (p.blocks_per_sec / 1e6).toFixed(2) + ' Mblocks/s';
    if (p.error) line += ' — ' + p.error;
    document.getElementById('stats').textContent =
      p.done + '/' + p.total + ' specs · last: ' + line;
    logLine(ev.time, line);
  }
}

function logLine(time, text) {
  const tbody = document.querySelector('#log tbody');
  tbody.insertBefore(rowOf([time, text]), tbody.firstChild);
  while (tbody.children.length > 50) tbody.removeChild(tbody.lastChild);
}

refreshJobs();
setInterval(refreshJobs, 2000);
</script>
</body>
</html>
`
