package repro.perfbench

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import org.apache.spark.sql.functions._

/** Input construction shared by the workloads. Every input is built with an
  * explicit partition count and cached, so a sketch (whose occurrence order
  * follows the physical row order) does not depend on the core count.
  */
object Inputs {

  /** Partition count of every generated input. */
  val Partitions = 8

  /** A deterministic uniform value in [0, 1) from (seed, salt, column). */
  def uniform(seed: Long, salt: Int, c: Column): Column =
    shiftrightunsigned(xxhash64(lit(seed), lit(salt), c), 11).cast("double") / 9007199254740992.0

  /** A small table built from local rows, laid out in exactly `Partitions` slices. */
  def relaid(spark: SparkSession, schema: StructType, rows: Array[Row]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, Partitions), schema)

  /** Cache and materialize; returns the cached frame. */
  def cached(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }

  /** Cache and materialize many frames, a few jobs at a time. */
  def cachedAll(dfs: Seq[DataFrame]): Seq[DataFrame] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try dfs.map(df => pool.submit(() => cached(df))).map(_.get())
    finally pool.shutdown()
  }

  /** Cache and materialize; returns the cached frame and its row count. */
  def counted(df: DataFrame): (DataFrame, Long) = { val c = df.cache(); (c, c.count()) }
}
