package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.util.control.NonFatal

/** Benchmark entry point: one workload, one seed, a closed loop with a single
  * client for a fixed time, then a JSON result on the last stdout line.
  *
  * `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate pass
  * that alternates untraced and traced rounds (their difference is the
  * tracing overhead) and then times each layer on its own.
  *
  * Usage: Main --workload W --seed S --seconds T --trace 0|1 --out DIR
  */
object Main {

  /** Set-up is repeated this many times per run; setup_s is the median. */
  val SetupReps = 3
  /** Repetitions of the split-layer probe in a traced run. */
  val ProbeReps = 2

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path)

  def parse(a: Array[String]): Args = {
    val m = a.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = need("workload")
    require(Workloads.names.contains(w), s"unknown workload $w; one of ${Workloads.names.mkString(", ")}")
    Args(w, need("seed").toLong, need("seconds").toDouble, need("trace") == "1", Paths.get(need("out")))
  }

  /** A fresh session with every setting a result depends on pinned, so no
    * result depends on what ran before in the JVM.
    */
  def session(out: Path): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("warehouse").toString)
      // Bounded status retention, so retained heap does not grow with the
      // number of operations a run completes.
      .config("spark.ui.retainedJobs", "50")
      .config("spark.ui.retainedStages", "50")
      .config("spark.sql.ui.retainedExecutions", "50")
      .getOrCreate()
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val args = parse(argv)
        Files.createDirectories(args.out)
        val result = try run(args) finally SparkSession.getActiveSession.foreach(_.stop())
        val file = args.out.resolve(
          s"${args.workload}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
        Files.write(file, (Json.render(result.detail) + "\n").getBytes("UTF-8"))
        result.lines.foreach(println)
        println(Json.render(result.summary))
        0
      } catch { case NonFatal(e) => e.printStackTrace(); 1 }
    System.out.flush()
    // Exit explicitly: a failed run must not linger on Spark's threads.
    System.exit(code)
  }

  final case class Result(lines: Seq[String], summary: Map[String, Any], detail: Map[String, Any])

  final class Metric(val name: String, val value: Double, val unit: String, val note: String = "")

  private def setUp(args: Args, previous: Option[SparkSession]): (SparkSession, Instance, Double, Double) = {
    previous.foreach(_.stop())
    val t0    = System.nanoTime()
    val spark = session(args.out)
    val t1    = System.nanoTime()
    val inst  = Workloads.prepare(args.workload, spark, args.seed)
    val t2    = System.nanoTime()
    inst.warmUp()
    val t3 = System.nanoTime()
    Console.err.println(f"setup: session ${(t1 - t0) / 1e9}%.3f s, inputs ${(t2 - t1) / 1e9}%.3f s, " +
      f"warm-up ${(t3 - t2) / 1e9}%.3f s")
    (spark, inst, (t3 - t0) / 1e9, (t2 - t1) / 1e9)
  }

  def run(args: Args): Result =
    if (args.trace) traced(args) else endToEnd(args)

  /** Runs whole rounds until `seconds` have passed; `traceRound` picks the
    * rounds to trace.
    */
  private final class Loop(inst: Instance, seconds: Double) {
    val latencies = mutable.ArrayBuffer.empty[Double]
    val roundWall = mutable.Map.empty[Boolean, mutable.ArrayBuffer[Double]]
    var units, attempted, failed = 0
    var checkFailure: Option[String] = None
    var elapsed = 0.0

    def go(tracer: Option[Tracer], traceRound: Int => Boolean): Unit = {
      val t0 = System.nanoTime()
      var round = 0
      var i     = 0
      // A traced run needs an untraced round and two traced ones, so that
      // every traced call is seen twice on the same input.
      val minRounds = if (tracer.isDefined) 3 else 1
      while (checkFailure.isEmpty && (round < minRounds || (System.nanoTime() - t0) / 1e9 < seconds)) {
        val tr = if (traceRound(round)) tracer else None
        val r0 = System.nanoTime()
        for (_ <- 0 until inst.opsPerRound if checkFailure.isEmpty) {
          tr.foreach(_.op = i)
          val s0  = System.nanoTime()
          attempted += 1
          try {
            val body = () => inst.op(i, tr)
            val r = tr.fold(body())(t => t.span("op", s"op${i % inst.opsPerRound}")(body()))
            units += r.units
            if (r.nonFinite > 0) failed += 1
          } catch {
            case e: CheckFailed => checkFailure = Some(e.getMessage)
            case NonFatal(e)    => failed += 1; e.printStackTrace()
          }
          latencies += (System.nanoTime() - s0) / 1e9
          i += 1
        }
        roundWall.getOrElseUpdate(tr.isDefined, mutable.ArrayBuffer.empty) += (System.nanoTime() - r0) / 1e9
        round += 1
      }
      elapsed = (System.nanoTime() - t0) / 1e9
    }
  }

  private def endToEnd(args: Args): Result = {
    var spark: Option[SparkSession] = None
    val setups = mutable.ArrayBuffer.empty[Double]
    var inst: Instance = null
    for (_ <- 0 until SetupReps) {
      val (s, in, setupS, _) = setUp(args, spark)
      spark = Some(s); inst = in; setups += setupS
    }
    val loop = new Loop(inst, args.seconds)
    loop.go(None, _ => false)
    val retained = Jvm.retainedMb()
    val q0 = System.nanoTime()
    val quality  =
      try inst.quality()
      catch { case e: CheckFailed => loop.checkFailure = Some(e.getMessage); Double.NaN }
    Console.err.println(f"reference: ${(System.nanoTime() - q0) / 1e9}%.3f s")
    val okShare = (loop.attempted - loop.failed).toDouble / loop.attempted
    val metrics = Seq(
      new Metric("setup_s", LayerStats.median(setups.toSeq), "s", s"median of ${setups.size}"),
      new Metric("units_per_s", loop.units / loop.elapsed, "1/s", s"${loop.units} units"),
      new Metric("op_s.p50", LayerStats.median(loop.latencies.toSeq), "s", s"${loop.latencies.size} samples"),
      new Metric("ok_share", okShare, "ratio", s"failed_share=${1 - okShare}"),
      new Metric("retained_mb", retained, "MiB"),
      new Metric("rank_spearman", quality, "rho"),
    )
    finish(args, loop, metrics, Map("setup_s" -> setups.toSeq, "op_s" -> loop.latencies.toSeq))
  }

  private def traced(args: Args): Result = {
    val (spark, inst, _, generateS) = setUp(args, None)
    val counters = new SparkCounters
    spark.sparkContext.addSparkListener(counters)
    val tracer = new Tracer(spark.sparkContext, counters)
    new Loop(inst, 0).go(None, _ => false) // an untimed round, so both sides start warm
    val loop = new Loop(inst, args.seconds)
    // Untraced and traced rounds in ABBA order, so drift cancels out.
    loop.go(Some(tracer), r => r % 4 == 1 || r % 4 == 2)
    for (r <- 1 to ProbeReps) { tracer.op = -r; inst.probe(tracer) }

    val layers  = LayerStats.of(tracer.spans.toSeq).map(l => l.name -> l).toMap
    val perOp   = inst.opsPerRound.toDouble
    def wall(traced: Boolean) = LayerStats.median(loop.roundWall(traced).toSeq) / perOp
    val op      = layers("op")
    val unitsPerOp = loop.units.toDouble / loop.attempted
    val nonRepeating = layers.values.count(_.countsRepeat.contains(false))
    val unit = Map("s" -> "s", "jobs" -> "count", "tasks" -> "count", "shuffle_mb" -> "MiB",
                   "rows_out" -> "count", "driver_s" -> "s")
    val split = Seq(
      "split.core.hash" -> "s", "split.sketch.normalize" -> "s", "split.sketch.occurrence" -> "s",
      "split.sketch.aggregate" -> "s", "split.sketch.topn" -> "s",
      "split.sketch.left" -> "s", "split.sketch.left" -> "jobs", "split.sketch.left" -> "driver_s",
      "split.sketch.right" -> "s", "split.sketch.right" -> "jobs",
      "split.sketch.join_collect" -> "s", "split.sketch.join_collect" -> "jobs",
      "split.sketch.join_collect" -> "driver_s",
      "split.mi.estimate" -> "s", "split.mi.estimate" -> "rows_out",
      "op" -> "s", "op" -> "jobs", "op" -> "tasks", "op" -> "shuffle_mb", "op" -> "driver_s",
    ).map { case (n, f) =>
      // An estimator's output rows are the points it was given.
      val name = if (f == "rows_out") s"$n.points" else s"$n.$f"
      new Metric(name, layers(n).field(f), unit(f))
    }
    val metrics = split ++ Seq(
      new Metric("split.sketch.join_yield", layers("split.sketch.join_collect").rowsOut / Workloads.N, "ratio"),
      new Metric("op.jobs_per_unit", op.jobs / unitsPerOp, "count"),
      new Metric("spark.gc_s", Jvm.gcSeconds(), "s", "JVM GC time over the whole traced run"),
      new Metric("synth.generate.s", generateS, "s"),
      new Metric("trace.overhead_s", wall(true) - wall(false), "s",
        s"traced ${wall(true)} s - untraced ${wall(false)} s per op"),
      new Metric("counts.nonrepeating", nonRepeating.toDouble, "count"),
    )
    val table = layers.values.toSeq.sortBy(_.name).map { l =>
      f"  ${l.name}%-34s s=${l.s}%.5f jobs=${l.jobs}%.1f tasks=${l.tasks}%.1f " +
      f"shuffle_mb=${l.shuffleMb}%.3f rows_out=${l.rowsOut}%.1f driver_s=${l.driverS}%.5f " +
      s"calls=${l.calls} counts_repeat=${l.countsRepeat.map(b => if (b) "yes" else "NO (unusable for count claims)").getOrElse("n/a")}"
    }
    val detailLayers = layers.values.toSeq.sortBy(_.name).map { l =>
      Map("name" -> l.name, "s" -> l.s, "jobs" -> l.jobs, "tasks" -> l.tasks, "shuffle_mb" -> l.shuffleMb,
          "rows_out" -> l.rowsOut, "driver_s" -> l.driverS, "calls" -> l.calls,
          "counts_repeat" -> l.countsRepeat.map(_.toString).getOrElse("n/a"))
    }
    finish(args, loop, metrics, Map("layers" -> detailLayers),
      "per-layer figures: median over operations of the per-operation sum" +: table)
  }

  private def finish(args: Args, loop: Loop, metrics: Seq[Metric], extra: Map[String, Any],
                     table: Seq[String] = Nil): Result = {
    loop.checkFailure.foreach(m => Console.err.println(s"output check failed: $m"))
    val correct = loop.checkFailure.isEmpty && metrics.forall(m => Workloads.finite(m.value))
    val header = s"workload=${args.workload} seed=${args.seed} trace=${if (args.trace) 1 else 0} " +
      s"attempted=${loop.attempted} failed=${loop.failed} correct=$correct"
    val lines = header +: (metrics.map(m => f"  ${m.name}%-34s ${m.value}%.6f ${m.unit}%-6s ${m.note}") ++ table)
    val jsonMetrics = metrics.map(m => m.name -> Map("value" -> m.value, "unit" -> m.unit)).toMap
    val summary = Map("correct" -> correct, "attempted" -> loop.attempted, "failed" -> loop.failed,
                      "metrics" -> jsonMetrics)
    (Result(lines, summary, summary ++ extra ++ Map(
      "workload" -> args.workload, "seed" -> args.seed, "check_failure" -> loop.checkFailure.getOrElse(""))))
  }
}

/** Minimal JSON rendering for the result objects above. */
object Json {
  def render(v: Any): String = v match {
    case m: Map[_, _] =>
      m.toSeq.map { case (k, x) => s"${str(k.toString)}: ${render(x)}" }.sortBy(identity).mkString("{", ", ", "}")
    case s: Seq[_]    => s.map(render).mkString("[", ", ", "]")
    case d: Double    => if (Workloads.finite(d)) d.toString else "null"
    case b: Boolean   => b.toString
    case i: Int       => i.toString
    case l: Long      => l.toString
    case s: String    => str(s)
    case other        => str(other.toString)
  }
  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
}
