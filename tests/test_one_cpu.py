"""The broadcast-model scoring stages (bigram LM, naive Bayes, tf-idf)
and the image decode stage finish on a 1-CPU Ray session: they are
plain function stages, so no resident actor holds the only CPU while
the upstream ReadParquet task waits for it."""

import os
import shutil
import signal
import subprocess
import sys
import tempfile

from __ray_entry__ import _SMOKE_SF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a stall fails the run: the watchdog shuts Ray down and exits non-zero
# after WATCHDOG_S; the test then ends any Ray process of the run's
# own temp dir that is still alive
WATCHDOG_S = 180
SCRIPT = f"""
import os, sys, threading
import ray

def watchdog():
    print("stalled", flush=True)
    ray.shutdown()
    os._exit(3)

timer = threading.Timer({WATCHDOG_S}, watchdog)
timer.daemon = True
timer.start()
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", _temp_dir=sys.argv[2])
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from raysearch.pipelines.extras import top_terms_tfidf
from raysearch.pipelines.lm import bigram_logprob
from raysearch.pipelines.multimodal import ppm_stats
from raysearch.pipelines.nbayes import nb_lang_eval
for fn in (bigram_logprob, nb_lang_eval, top_terms_tfidf, ppm_stats):
    print(fn.__name__, fn(sys.argv[1]).num_rows, flush=True)
ray.shutdown()
os._exit(0)
"""


def _kill_procs_of(path: str) -> None:
    """SIGKILL every process whose command line names ``path``."""
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if path.encode() in f.read():
                    os.kill(int(pid), signal.SIGKILL)
        except OSError:
            pass


def test_model_and_decode_stages_finish_on_one_cpu():
    tmp = tempfile.mkdtemp(prefix="ray1cpu")  # short: socket paths
    try:
        r = subprocess.run(
            [sys.executable, "-c", SCRIPT, _SMOKE_SF, tmp],
            capture_output=True, text=True, cwd=REPO,
            timeout=WATCHDOG_S + 120,
            env={**os.environ, "PYTHONPATH": REPO})
    finally:
        _kill_procs_of(tmp)
        shutil.rmtree(tmp, ignore_errors=True)
    assert r.returncode == 0, r.stdout[-500:] + r.stderr[-2000:]
    rows = dict(ln.split() for ln in r.stdout.splitlines()
                if len(ln.split()) == 2)
    assert set(rows) == {"bigram_logprob", "nb_lang_eval",
                         "top_terms_tfidf", "ppm_stats"}
    assert all(int(n) > 0 for n in rows.values())
