package repro.discovery

import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit}
import org.apache.spark.sql.DataFrame
import repro.mi.MI
import repro.sketch.{AggFn, Sketch, Sketcher, TupSk}
import repro.sketch.Sketch.SketchData
import scala.jdk.CollectionConverters._

/** The end-to-end discovery query the sketches exist to serve (Section I):
  * given a base table with a target column, rank candidate joinable tables by
  * the estimated MI between their feature column and the target — without
  * materializing any join. The base table is sketched and collected once;
  * the candidates are sketched and collected concurrently, one Spark job
  * each; then every sketch join is an in-memory merge on the driver, which
  * runs no Spark job.
  */
object JoinRanker {

  final case class Candidate(name: String, df: DataFrame, key: String, value: String,
                             agg: AggFn = AggFn.First)

  final case class Ranked(name: String, estimatedMI: Double, sketchJoinSize: Int,
                          estimator: String)

  /** Rank candidates by sketch-estimated MI (descending). Candidates whose
    * sketch-join is too small to estimate (< minJoin rows) rank last with
    * NaN estimates, mirroring the paper's "discard meaningless estimates".
    * A candidate that cannot be sketched (e.g. AVG over a string column)
    * fails the call with its own exception.
    */
  def rank(train: DataFrame, trainKey: String, target: String,
           candidates: Seq[Candidate], conf: Sketch.SketchConf,
           sketcher: Sketcher = TupSk, minJoin: Int = 10): Seq[Ranked] = {
    val left   = SketchData.collect(sketcher.sketchLeft(train, trainKey, target, conf))
    val rights = concurrently(train.sparkSession.sparkContext.defaultParallelism,
      candidates.map(c => () => SketchData.collect(sketcher.sketchRight(c.df, c.key, c.value, c.agg, conf))))
    val ranked = candidates.zip(rights).map { case (c, right) =>
      val sample = Sketch.merge(left, right)
      val kind   = MI.auto(sample.x, sample.y)
      val est =
        if (sample.size < minJoin) Double.NaN
        else MI.estimate(kind, sample.x, sample.y)
      Ranked(c.name, est, sample.size, kind.name)
    }
    ranked.sortBy(r => if (r.estimatedMI.isNaN) Double.NegativeInfinity else r.estimatedMI)(
      Ordering[Double].reverse)
  }

  /** Runs `tasks` on a fixed pool of min(tasks, parallelism) threads and
    * returns their results in task order. Every task completes before this
    * returns; the first failed task in order rethrows its own exception.
    */
  private def concurrently[A](parallelism: Int, tasks: Seq[() => A]): Seq[A] =
    if (tasks.isEmpty) Seq.empty
    else {
      val pool = Executors.newFixedThreadPool(math.min(tasks.size, parallelism))
      try pool.invokeAll(tasks.map(t => (() => t()): Callable[A]).asJava).asScala.toSeq.map { f =>
        try f.get() catch { case e: ExecutionException => throw e.getCause }
      } finally {
        pool.shutdown()
        pool.awaitTermination(1, TimeUnit.MINUTES)
      }
    }
}
