package repro.sketch

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Hashing
import repro.sketch.Sketch.SketchConf

/** A sampling frame: what a sketch row stands for, and the salted h_u that
  * ranks it. Equal salts on the two sides coordinate the sketches.
  */
private[sketch] sealed trait Frame
private[sketch] object Frame {
  /** A frame with one hash per row, usable on either side. */
  sealed trait Hashed extends Frame
  /** The occurrence tuple ⟨k, j⟩, the j-th row with key k. An aggregated
    * table has one row per key, hashed at ⟨k, 1⟩.
    */
  final case class Tuple(salt: Int) extends Hashed
  /** The key k alone (KMV). A left table keeps its first row per key. */
  final case class Key(salt: Int) extends Hashed
  /** Left side only: n keys ranked by `keyOrder(h_u(k), N_k)`, then
    * n_k = max(1, floor(n·N_k/N)) rows of each key in the order of an
    * independent per-row hash. The sketch holds between n and 2n rows
    * whenever the table has at least n keys.
    */
  final case class KeysThenRows(keyOrder: (Column, Column) => Column) extends Frame
}

/** A sketching scheme (Section IV; Section V, "Sketching Methods"): how to
  * sample the train (left) table, whose keys may repeat, and the candidate
  * (right) table, whose repeated keys are aggregated into the `T_aug` the
  * join needs. The five schemes differ only in their frames and, for CSK,
  * in keeping the first value per key whatever AGG is asked for.
  */
sealed abstract class Sketcher private[sketch] (
    val name: String,
    left: Frame,
    right: Frame.Hashed,
    firstValueOnly: Boolean = false,
) {

  def sketchLeft(df: DataFrame, key: String, value: String, conf: SketchConf): DataFrame = {
    val norm = Sketch.normalize(df, key, value)
    left match {
      case f @ Frame.Tuple(_) => topN(Sketch.withOccurrence(norm), hu(f, col("j")), conf)
      case f @ Frame.Key(_)   => topN(Featurize.aggregateNorm(norm, AggFn.First), hu(f, lit(1)), conf)
      case Frame.KeysThenRows(keyOrder) => twoLevel(norm, keyOrder, conf.n)
    }
  }

  def sketchRight(df: DataFrame, key: String, value: String, agg: AggFn,
                  conf: SketchConf): DataFrame =
    topN(Featurize.aggregate(df, key, value, if (firstValueOnly) AggFn.First else agg),
         hu(right, lit(1)), conf)

  private def hu(f: Frame.Hashed, j: Column): Column = f match {
    case Frame.Tuple(salt) => Hashing.huTuple(salt, col("k"), j)
    case Frame.Key(salt)   => Hashing.huKey(salt, col("k"))
  }

  /** Rows `[k, vNum, vStr, …]` as sketch tuples `[hkey, hu, vNum, vStr]`. */
  private def hashed(rows: DataFrame, hu: Column): DataFrame =
    rows.select(Hashing.hkey(col("k")) as "hkey", hu as "hu", col("vNum"), col("vStr"))

  private def topN(rows: DataFrame, hu: Column, conf: SketchConf): DataFrame =
    Sketch.topN(hashed(rows, hu), conf.n, Sketch.TopNImpl.Udaf)

  private def twoLevel(norm: DataFrame, keyOrder: (Column, Column) => Column,
                       n: Int): DataFrame = {
    // Level 1: per-key counts N_k, their total N, and the n keys first in
    // the scheme's order. N is a scalar subquery, so building the plan runs
    // no job.
    val chosen = norm.groupBy("k").agg(count(lit(1)) as "Nk")
      .withColumn("N", norm.agg(count(lit(1))).scalar())
      .withColumn("huKey", Hashing.huKey(Hashing.SaltKey, col("k")))
      .orderBy(keyOrder(col("huKey"), col("Nk")).asc, col("k").asc)
      .limit(n)
    // Level 2: keep n_k rows per chosen key, picked in the order of an
    // independent per-row hash (a Bernoulli-style subset).
    val rows = Sketch.withOccurrence(norm)
      .join(chosen, Seq("k"))
      .withColumn("hu2", Hashing.huTuple(Hashing.SaltSecondLevel, col("k"), col("j")))
      .withColumn("rank", row_number().over(Window.partitionBy("k").orderBy(col("hu2"), col("j"))))
      .filter(col("rank") <= greatest(lit(1L), floor(lit(n.toLong) * col("Nk") / col("N"))))
    hashed(rows, col("huKey"))
  }
}

object Sketcher {
  /** All schemes evaluated in the paper's Tables I/II. */
  def all: Seq[Sketcher] = Seq(Csk, IndSk, Lv2Sk, PriSk, TupSk)
}

/** TUPSK, the paper's tuple sketch (Section IV-B). The left table keeps the
  * n rows with minimum h_u(⟨k, j⟩), so every row has the same inclusion
  * probability whatever the key frequencies, and the join sample is
  * uniform. The aggregated candidate keeps the n keys with minimum
  * h_u(⟨k, 1⟩); the shared salt coordinates the two sides.
  */
object TupSk extends Sketcher("TUPSK", Frame.Tuple(Hashing.SaltTuple), Frame.Tuple(Hashing.SaltTuple))

/** INDSK, the independent sampling baseline: n uniformly random rows per
  * table under different salts, so the samples are uncoordinated and their
  * join recovers quadratically fewer rows (Section IV).
  */
object IndSk extends Sketcher("INDSK", Frame.Tuple(Hashing.SaltIndLeft), Frame.Key(Hashing.SaltIndRight))

/** CSK, Correlation Sketches (Santos et al., SIGMOD 2021) extended to MI.
  * Both tables keep the first value seen per key, then the n keys with
  * minimum h_u(k). Coordination is full, but the left table's key
  * frequencies, which the left join would replicate into the feature, are
  * lost: the bias this baseline shows.
  */
object Csk extends Sketcher("CSK", Frame.Key(Hashing.SaltKey), Frame.Key(Hashing.SaltKey),
                            firstValueOnly = true)

/** LV2SK, the two-level baseline (Section IV-A): coordinated KMV over keys by
  * h_u(k), then n_k rows of each. Row inclusion depends on the key
  * frequencies, the non-uniformity TUPSK removes. Aggregation makes the
  * candidate's keys unique, so its side is plain KMV over keys.
  */
object Lv2Sk extends Sketcher("LV2SK", Frame.KeysThenRows((hu, _) => hu), Frame.Key(Hashing.SaltKey))

/** PRISK, two-level with a priority-sampling first level: rank keys by
  * h_u(k)/N_k, i.e. take the n largest priorities N_k/u_k
  * (Duffield-Lund-Thorup). Results track LV2SK closely.
  */
object PriSk extends Sketcher("PRISK",
  Frame.KeysThenRows((hu, nk) => hu / nk.cast("double")), Frame.Key(Hashing.SaltKey))
