package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.SparkContext
import org.apache.spark.repro.ListenerBusDrain
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Cumulative Spark counters: jobs, tasks, shuffle bytes (read + written) and
  * the time at least one job was running ("busy"), from listener event times.
  */
final class SparkCounters extends SparkListener {
  private var jobs, tasks, shuffleBytes, busyMs = 0L
  private var active      = 0
  private var activeSince = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    if (active == 0) activeSince = e.time
    active += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    active -= 1
    if (active == 0) busyMs += e.time - activeSince
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null)
      shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
  }

  /** Counters after every event posted so far has been delivered. */
  def snapshot(sc: SparkContext): Counts = {
    ListenerBusDrain(sc)
    synchronized(Counts(jobs, tasks, shuffleBytes, busyMs))
  }
}

final case class Counts(jobs: Long, tasks: Long, shuffleBytes: Long, busyMs: Long) {
  def -(o: Counts): Counts =
    Counts(jobs - o.jobs, tasks - o.tasks, shuffleBytes - o.shuffleBytes, busyMs - o.busyMs)
}

object Jvm {
  /** Total JVM garbage-collection time so far, in seconds. */
  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Heap in use after a forced full collection, in MiB. */
  def retainedMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    System.gc(); System.gc()
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** One recorded call into a layer. `key` names the input, so that calls on
  * identical inputs can be compared for count repeatability; `rows` is the
  * layer's output size (-1 where the layer does not materialize one).
  */
final case class Span(name: String, key: String, op: Int, wallS: Double,
                      counts: Counts, rows: Long) {
  def driverS: Double = math.max(0.0, wallS - counts.busyMs / 1e3)
}

/** Keeps spans in memory until the run ends. Each span drains the listener
  * bus at both ends, which is part of the measured tracing overhead.
  */
final class Tracer(sc: SparkContext, counters: SparkCounters) {
  val spans = mutable.ArrayBuffer.empty[Span]
  /** Operation index the next spans belong to; probes use their own. */
  var op = 0

  def span[A](name: String, key: String = "")(body: => A): A = spanRows(name, key)(body)(_ => -1L)

  def spanRows[A](name: String, key: String = "")(body: => A)(rows: A => Long): A = {
    val c0 = counters.snapshot(sc)
    val t0 = System.nanoTime()
    val a  = body
    val t1 = System.nanoTime()
    spans += Span(name, key, op, (t1 - t0) / 1e9, counters.snapshot(sc) - c0, rows(a))
    a
  }
}

/** Per-layer figures from a set of spans. Each figure is the median over
  * operations of the per-operation sum, so it does not depend on how many
  * operations fit in a run.
  */
object LayerStats {

  final case class Layer(name: String, s: Double, jobs: Double, tasks: Double,
                         shuffleMb: Double, rowsOut: Double, driverS: Double,
                         calls: Int, countsRepeat: Option[Boolean]) {
    def field(f: String): Double = f match {
      case "s" => s; case "jobs" => jobs; case "tasks" => tasks
      case "shuffle_mb" => shuffleMb; case "rows_out" => rowsOut; case "driver_s" => driverS
    }
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def of(spans: Seq[Span]): Seq[Layer] =
    spans.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, ss) =>
      val perOp = ss.groupBy(_.op).values.toSeq
      def med(f: Span => Double): Double = median(perOp.map(_.map(f).sum))
      Layer(name,
        s         = med(_.wallS),
        jobs      = med(_.counts.jobs.toDouble),
        tasks     = med(_.counts.tasks.toDouble),
        shuffleMb = med(_.counts.shuffleBytes / (1024.0 * 1024.0)),
        rowsOut   = if (ss.forall(_.rows < 0)) Double.NaN else med(_.rows.max(0L).toDouble),
        driverS   = med(_.driverS),
        calls     = ss.size,
        countsRepeat = repeats(ss))
    }

  /** Whether jobs, tasks and rows are identical across calls on the same
    * input; None when no input was seen twice.
    */
  def repeats(ss: Seq[Span]): Option[Boolean] = {
    val groups = ss.groupBy(_.key).values.filter(_.size > 1)
    if (groups.isEmpty) None
    else Some(groups.forall(g => g.map(s => (s.counts.jobs, s.counts.tasks, s.rows)).distinct.size == 1))
  }
}
