#!/usr/bin/env python3
"""Benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload rank_small --seed 1 --seconds 20 --trace 0

It builds the program's sources together with the benchmark code (sbt, in
this directory; rebuilt when a source is newer than the last build), runs one
workload in its own JVM and prints the result as the last stdout line. Every
file a run writes goes under perfbench/out/, wherever it is started from.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
CLASSPATH = os.path.join(BENCH, "target", "bench-classpath.txt")
WORKLOADS = ["rank_small", "fullref"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Module flags Spark's own launcher passes on Java 17+.
JAVA_OPENS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar"]
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout or
    when this script is terminated, and wait for it to end."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {cmd[0]}")
    return proc.returncode, out


def sources():
    for top in [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src"),
                os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]:
        if os.path.isfile(top):
            yield top
        for d, _, files in os.walk(top):
            for f in files:
                yield os.path.join(d, f)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found (set SPARK_HOME)")
    return home


def build(env):
    if os.path.isfile(CLASSPATH):
        stamp = os.path.getmtime(CLASSPATH)
        if all(os.path.getmtime(p) <= stamp for p in sources()):
            return
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "compile",
           "export Runtime/fullClasspath"]
    code, out = run(cmd, BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE,
                    stderr=sys.stderr, text=True)
    lines = [l for l in out.splitlines() if "classes" in l and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail("build failed")
    os.makedirs(os.path.dirname(CLASSPATH), exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(lines[-1].strip())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"program sources not found under {ROOT}/src/main/scala")
    env = dict(os.environ, SPARK_HOME=spark_home())
    # The build resolves only from the local dependency cache.
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    build(env)
    with open(CLASSPATH) as f:
        cp = f.read().strip()

    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-Xmx3g", "-XX:+UseG1GC", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"]
           + JAVA_OPENS
           + ["-cp", cp, "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", a.trace, "--out", OUT])
    code, out = run(cmd, RUN_TIMEOUT_S, cwd=OUT, env=env, stdout=subprocess.PIPE,
                    stderr=sys.stderr, text=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        fail(f"benchmark exited with code {code}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
